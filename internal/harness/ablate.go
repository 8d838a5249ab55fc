package harness

import (
	"context"
	"fmt"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

// AB1ContactFanout ablates the ContactFanout design choice: how many
// cached responders a nonblocking operation contacts at a time. The
// paper's sequential top-down walk (fanout 1) minimises messages; wider
// fanouts trade messages for latency when the tuple's holder sits deep
// in the responder list. Both extremes are measured: holder at the top
// of the list (the common steady state §3.1.3 optimises for, and the
// state a lone holder's first found reply restores) and holder at the
// bottom. Because a found reply ranks a lone holder first, the bottom
// case is a transient that lasts exactly one lookup — so each
// measured op first moves the tuple to whichever node currently sits at
// the bottom of the reader's list, making every op pay one full walk.
func AB1ContactFanout(scale Scale) (*Table, error) {
	nodes := 10
	ops := 30
	if scale == Quick {
		nodes = 6
		ops = 10
	}
	fanouts := []int{1, 2, 4, 8}
	netLatency := time.Millisecond

	t := &Table{
		ID:      "AB1",
		Title:   "ablation: ContactFanout (messages vs latency)",
		Columns: []string{"holder position", "fanout", "unicasts/op", "mean latency/op"},
	}
	for _, holderAtTop := range []bool{true, false} {
		for _, fanout := range fanouts {
			c, err := newCluster(clusterOpts{
				n: nodes,
				mutate: func(_ int, cfg *core.Config) {
					cfg.ContactFanout = fanout
				},
				netOpts: []memnet.Option{memnet.WithLatency(netLatency)},
			})
			if err != nil {
				return nil, err
			}
			reader := c.inst[0]
			holder := c.inst[nodes-1]
			if err := holder.Out(tuple.T(tuple.String("d"), tuple.Int(1)),
				lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 64})); err != nil {
				c.close()
				return nil, err
			}
			rdTerms := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: nodes * 4})
			tmpl := tuple.Tmpl(tuple.String("d"), tuple.FormalInt())

			byAddr := make(map[wire.Addr]*core.Instance, nodes)
			for i, inst := range c.inst {
				byAddr[addr(i)] = inst
			}

			// Warm up: the first lookup multicasts and populates the
			// reader's list; the found reply ranks the holder first,
			// which is exactly the steady state the top case measures.
			c.net.ConnectAll()
			warmup := func() error {
				_, _, err := reader.Rdp(context.Background(), tmpl, rdTerms)
				return err
			}
			for i := 0; i < 2; i++ {
				if err := warmup(); err != nil {
					c.close()
					return nil, err
				}
			}
			time.Sleep(20 * time.Millisecond) // absorb warm-up stragglers

			var msgs int64
			var wall time.Duration
			cur := holder
			for k := 0; k < ops; k++ {
				if !holderAtTop {
					// Move the tuple to the current bottom of the
					// reader's list; both hops are local space ops, so
					// the relocation itself costs no wire messages.
					snap := reader.ResponderList()
					bottom := byAddr[snap[len(snap)-1]]
					if bottom != cur {
						if _, ok, _ := cur.Inp(context.Background(), tmpl, nil); !ok {
							c.close()
							return nil, fmt.Errorf("AB1: tuple lost during relocation")
						}
						if err := bottom.Out(tuple.T(tuple.String("d"), tuple.Int(1)),
							lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 64})); err != nil {
							c.close()
							return nil, err
						}
						cur = bottom
					}
				}
				base := c.met.Snapshot()
				start := time.Now()
				_, ok, err := reader.Rdp(context.Background(), tmpl, rdTerms)
				if err != nil {
					c.close()
					return nil, err
				}
				if !ok {
					c.close()
					return nil, fmt.Errorf("AB1: lookup missed")
				}
				wall += time.Since(start)
				time.Sleep(4 * netLatency) // let straggler replies land in this op's window
				msgs += c.met.Diff(base)[trace.CtrUnicasts]
			}
			pos := "bottom"
			if holderAtTop {
				pos = "top"
			}
			t.AddRow(pos, fmtI(int64(fanout)),
				fmtF(float64(msgs)/float64(ops)),
				fmtD(wall/time.Duration(ops)))
			c.close()
		}
	}
	t.AddNote("holder at top: fanout 1 is optimal (2 msgs/op); wider fanouts waste messages on nodes that cannot answer. holder at bottom: every fanout pays the same full walk in messages, but fanout 1 serialises it while wider fanouts parallelise the latency. Ranking by share of finds makes the bottom case a one-lookup transient for a lone holder, so the default of 1 matches both the paper's sequential walk and the steady state the ranking restores.")
	return t, nil
}
