package myrinet

import (
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// dmaTime is when a DMA of bytes, issued at time 0 on an idle node
// running prof, completes.
func dmaTime(prof hwprofile.MyrinetProfile, bytes int) sim.Time {
	eng := sim.NewEngine()
	cl := NewCluster(eng, prof, 1, nil)
	cl.Nodes[0].dma(bytes, sim.Nop{})
	eng.Run()
	return eng.Now() // the DMA's completion is the only event
}

// A DMA holds the bus for the profile's setup plus the bytes at its
// bandwidth: on PCI-X, 600 ns + 1,064 B at 1,064 MB/s.
func TestNodeDMALatency(t *testing.T) {
	if got := dmaTime(hwprofile.LANaiXPCluster(), 1064); got != 1600 {
		t.Fatalf("DMA completion at %v, want 1600ns", got)
	}
	if got := dmaTime(hwprofile.LANaiXPCluster(), 0); got != 600 {
		t.Fatalf("zero-byte DMA completion at %v, want setup-only 600ns", got)
	}
}

// The Xeon cluster's PCI-X bus moves a 4 KB DMA sooner than the
// Pentium-III cluster's PCI bus.
func TestNodeDMAPCIXFasterThanPCI(t *testing.T) {
	pci := dmaTime(hwprofile.LANai91Cluster(), 4096)
	pcix := dmaTime(hwprofile.LANaiXPCluster(), 4096)
	if pcix >= pci {
		t.Fatalf("PCI-X (%v) not faster than PCI (%v)", pcix, pci)
	}
}
