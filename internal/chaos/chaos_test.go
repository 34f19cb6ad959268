package chaos

import (
	"reflect"
	"testing"

	"nicbarrier/internal/hwprofile"
)

// The soak's own gate: across a bank of seeds on both backends, every
// invariant must hold, and the machinery must actually engage — a bank
// where nothing was ever evicted or retried would mean the schedule
// generator stopped producing meaningful faults.
func TestSoakInvariantsAcrossSeeds(t *testing.T) {
	var evictions, retries int
	for _, backend := range []hwprofile.Testbed{hwprofile.LANaiXP, hwprofile.Elan3} {
		for seed := uint64(1); seed <= 10; seed++ {
			rep, err := Soak(Spec{Backend: backend, Seed: seed, BurstLoss: true, SlowNIC: true})
			if err != nil {
				t.Fatalf("%v seed %d: %v", backend, seed, err)
			}
			if !rep.OK() {
				t.Errorf("%v seed %d violations: %v\n schedule: %s", backend, seed, rep.Violations, rep.Schedule)
			}
			evictions += rep.Evictions
			retries += rep.Retries
		}
	}
	if evictions == 0 {
		t.Error("no evictions across the whole seed bank: faults not landing")
	}
	if retries == 0 {
		t.Error("no retries across the whole seed bank: deadlines never fired")
	}
}

// Same seed, same spec — same report, byte for byte. A violating seed
// must replay exactly or it cannot be debugged.
func TestSoakDeterministic(t *testing.T) {
	spec := Spec{Backend: hwprofile.LANaiXP, Seed: 7, BurstLoss: true, SlowNIC: true}
	a, err := Soak(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("soak not reproducible:\n a: %+v\n b: %+v", a, b)
	}
}

// Seeds 1-25 on both backends under the chaossoak defaults (burst loss
// and a slow NIC on) pin each run's fault schedule and outcome: ops
// completed, evictions, retries, timeouts and terminally failed groups.
// Any change to the planners' draw order, the tenant driver or the
// recovery machinery that moves a single soak shows up here by seed.
func TestSoakPinned(t *testing.T) {
	type pinned struct {
		backend                               hwprofile.Testbed
		seed                                  uint64
		schedule                              string
		ops, evict, retry, timeout, failedGrp int
	}
	want := []pinned{
		{hwprofile.LANaiXP, 1, "burst-0.146-len4, crash-12, crash-7, slow-nic-14", 48, 3, 3, 3, 0},
		{hwprofile.LANaiXP, 2, "burst-0.147-len4, crash-7, slow-nic-9", 48, 0, 1, 1, 0},
		{hwprofile.LANaiXP, 3, "burst-0.0858-len4, crash-5, partition-1<->10, slow-nic-4", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 4, "burst-0.0701-len4, crash-5, crash-7, slow-nic-8", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 5, "burst-0.141-len4, crash-7, partition-5<->11, slow-nic-2", 48, 1, 2, 2, 0},
		{hwprofile.LANaiXP, 6, "burst-0.111-len4, crash-10, crash-6, slow-nic-3", 48, 3, 3, 3, 0},
		{hwprofile.LANaiXP, 7, "burst-0.0507-len4, crash-14, partition-15<->2, slow-nic-7", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 8, "burst-0.0613-len4, crash-5, slow-nic-0", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 9, "burst-0.144-len4, crash-13, crash-7, partition-12<->8, slow-nic-10", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 10, "burst-0.0864-len4, crash-13, partition-14<->11, slow-nic-12", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 11, "burst-0.0737-len4, crash-12, partition-4<->6, slow-nic-9", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 12, "burst-0.0719-len4, crash-2, slow-nic-7", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 13, "burst-0.0901-len4, crash-0, partition-2<->10, slow-nic-13", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 14, "burst-0.0502-len4, crash-1, slow-nic-4", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 15, "burst-0.12-len4, crash-12, slow-nic-9", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 16, "burst-0.0772-len4, crash-14, crash-8, partition-10<->9, slow-nic-0", 36, 3, 2, 3, 1},
		{hwprofile.LANaiXP, 17, "burst-0.12-len4, crash-0, crash-14, slow-nic-1", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 18, "burst-0.138-len4, crash-12, crash-13, partition-7<->11, slow-nic-5", 48, 1, 2, 2, 0},
		{hwprofile.LANaiXP, 19, "burst-0.0694-len4, crash-13, crash-5, partition-1<->11, slow-nic-10", 48, 4, 4, 4, 0},
		{hwprofile.LANaiXP, 20, "burst-0.0539-len4, crash-13, crash-9, slow-nic-11", 48, 0, 0, 0, 0},
		{hwprofile.LANaiXP, 21, "burst-0.113-len4, crash-1, slow-nic-9", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 22, "burst-0.0582-len4, crash-1, crash-5, partition-11<->12, slow-nic-0", 48, 1, 1, 1, 0},
		{hwprofile.LANaiXP, 23, "burst-0.126-len4, crash-14, slow-nic-15", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 24, "burst-0.107-len4, crash-11, slow-nic-14", 48, 2, 2, 2, 0},
		{hwprofile.LANaiXP, 25, "burst-0.101-len4, crash-10, partition-2<->6, slow-nic-1", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 1, "crash-12, crash-7, slow-nic-14", 48, 2, 2, 2, 0},
		{hwprofile.Elan3, 2, "crash-7, slow-nic-9", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 3, "crash-5, partition-1<->10, slow-nic-4", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 4, "crash-5, crash-7, slow-nic-8", 48, 2, 3, 3, 0},
		{hwprofile.Elan3, 5, "crash-7, partition-5<->11, slow-nic-2", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 6, "crash-10, crash-6, slow-nic-3", 48, 2, 2, 2, 0},
		{hwprofile.Elan3, 7, "crash-14, partition-15<->2, slow-nic-7", 48, 3, 3, 3, 0},
		{hwprofile.Elan3, 8, "crash-5, slow-nic-0", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 9, "crash-13, crash-7, partition-12<->8, slow-nic-10", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 10, "crash-13, partition-14<->11, slow-nic-12", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 11, "crash-12, partition-4<->6, slow-nic-9", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 12, "crash-2, slow-nic-7", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 13, "crash-0, partition-2<->10, slow-nic-13", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 14, "crash-1, slow-nic-4", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 15, "crash-12, slow-nic-9", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 16, "crash-14, crash-8, partition-10<->9, slow-nic-0", 48, 4, 3, 3, 0},
		{hwprofile.Elan3, 17, "crash-0, crash-14, slow-nic-1", 48, 4, 6, 6, 0},
		{hwprofile.Elan3, 18, "crash-12, crash-13, partition-7<->11, slow-nic-5", 48, 2, 2, 2, 0},
		{hwprofile.Elan3, 19, "crash-13, crash-5, partition-1<->11, slow-nic-10", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 20, "crash-13, crash-9, slow-nic-11", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 21, "crash-1, slow-nic-9", 48, 1, 1, 1, 0},
		{hwprofile.Elan3, 22, "crash-1, crash-5, partition-11<->12, slow-nic-0", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 23, "crash-14, slow-nic-15", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 24, "crash-11, slow-nic-14", 48, 0, 0, 0, 0},
		{hwprofile.Elan3, 25, "crash-10, partition-2<->6, slow-nic-1", 48, 1, 1, 1, 0},
	}
	for _, w := range want {
		rep, err := Soak(Spec{Backend: w.backend, Seed: w.seed, BurstLoss: true, SlowNIC: true})
		if err != nil {
			t.Fatalf("%v seed %d: %v", w.backend, w.seed, err)
		}
		got := pinned{rep.Backend, rep.Seed, rep.Schedule, rep.OpsCompleted, rep.Evictions,
			rep.Retries, rep.Timeouts, rep.FailedGroups}
		if got != w {
			t.Errorf("%v seed %d:\n got %+v\nwant %+v", w.backend, w.seed, got, w)
		}
		if !rep.OK() {
			t.Errorf("%v seed %d violations: %v", w.backend, w.seed, rep.Violations)
		}
	}
}
