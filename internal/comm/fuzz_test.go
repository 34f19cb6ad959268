package comm

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/myrinet"
)

// FuzzGroupConfig decodes its inputs into a GroupConfig — kind,
// members, algorithm, tree and broadcast degrees, root, operator, both
// schemes — and admits it on an 8-node Myrinet and an 8-node Quadrics
// cluster under AdmitError and under AdmitQueue. NewGroup must never
// panic, the two policies must reject the same configurations with the
// same error (nothing is short of slots on a fresh cluster), and every
// accepted group must run 2 operations and pass CheckResults. The seed
// corpus in testdata/fuzz holds one configuration per former panic.
func FuzzGroupConfig(f *testing.F) {
	f.Add(int8(OpAllreduce), int8(barrier.PairwiseExchange), 0, 0, 0, int8(core.ReduceSum),
		int8(myrinet.SchemeCollective), int8(elan.SchemeChained), []byte{3, 1, 4, 0, 6}, true)
	f.Fuzz(func(t *testing.T, kind, alg int8, treeDegree, degree, root int, op, myScheme, elScheme int8, members []byte, contrib bool) {
		gc := GroupConfig{
			Kind:          OpKind(kind),
			Algorithm:     barrier.Algorithm(alg),
			Options:       barrier.Options{TreeDegree: treeDegree},
			MyrinetScheme: myrinet.Scheme(myScheme),
			ElanScheme:    elan.Scheme(elScheme),
			Root:          root,
			Degree:        degree,
			Reduce:        core.ReduceOp(op),
		}
		for _, b := range members {
			gc.Members = append(gc.Members, int(int8(b)))
		}
		if contrib {
			gc.Contrib = func(rank, iter int) int64 { return int64(rank*7 - iter*3) }
		}
		for _, over := range []func(int) *Cluster{xpComm, elanComm} {
			var errs [2]string
			for i, policy := range []AdmitPolicy{AdmitError, AdmitQueue} {
				c := over(8)
				c.SetAdmission(AdmissionConfig{Policy: policy})
				g, err := c.NewGroup(gc)
				if err != nil {
					errs[i] = err.Error()
					continue
				}
				if !g.Installed() {
					t.Fatalf("%v: group queued on a fresh cluster", policy)
				}
				g.Run(2)
				if err := g.CheckResults(); err != nil {
					t.Fatalf("%v: %v", policy, err)
				}
			}
			if errs[0] != errs[1] {
				t.Fatalf("policies disagree: error policy %q, queue policy %q", errs[0], errs[1])
			}
		}
	})
}
