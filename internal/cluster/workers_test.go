package cluster

import (
	"testing"
	"time"
)

// TestWorkerTable drives one worker's row through input sequences and
// checks, after every input, the transition event it caused, the bench it
// imposed and the gate's verdict. A strike's bench must land in [0.7, 1] × its
// unjittered value, Backoff·2^(k−1) capped at BackoffMax, and the gate must
// open again exactly when the bench runs out.
func TestWorkerTable(t *testing.T) {
	const (
		base  = 100 * time.Millisecond
		max   = 800 * time.Millisecond
		fails = 3
		w     = "http://w"
	)
	type step struct {
		in      workerInput
		kind    string        // kind of the Event observe returns
		bench   time.Duration // unjittered bench a strike imposes; 0 for none
		verdict gateVerdict   // the gate right after the event
	}
	tests := []struct {
		name  string
		steps []step
	}{
		{"eviction exactly at HeartbeatFails", []step{
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "evict", 0, gateEvicted},
			{probeFailed, "", 0, gateEvicted},
		}},
		{"good probe readmits and resets the count", []step{
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "evict", 0, gateEvicted},
			{probeOK, "readmit", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "evict", 0, gateEvicted},
		}},
		{"good probe below the budget resets the count", []step{
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeOK, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "", 0, gateOpen},
			{probeFailed, "evict", 0, gateEvicted},
		}},
		{"429 never strikes", []step{
			{shardSaturated, "", 0, gateOpen},
			{shardSaturated, "", 0, gateOpen},
			{shardSaturated, "", 0, gateOpen},
			{shardSaturated, "", 0, gateOpen},
			{shardFailed, "quarantine", base, gateBenched},
		}},
		{"kth strike doubles the bench up to BackoffMax", []step{
			{shardFailed, "quarantine", base, gateBenched},
			{shardFailed, "quarantine", 2 * base, gateBenched},
			{shardFailed, "quarantine", 4 * base, gateBenched},
			{shardFailed, "quarantine", max, gateBenched},
			{shardFailed, "quarantine", max, gateBenched},
		}},
		{"completed shard clears the strikes", []step{
			{shardFailed, "quarantine", base, gateBenched},
			{shardFailed, "quarantine", 2 * base, gateBenched},
			{shardDone, "", 0, gateOpen},
			{shardFailed, "quarantine", base, gateBenched},
		}},
		{"eviction and bench are independent", []step{
			{shardFailed, "quarantine", base, gateBenched},
			{probeFailed, "", 0, gateBenched},
			{probeFailed, "", 0, gateBenched},
			{probeFailed, "evict", 0, gateEvicted},
			{shardFailed, "quarantine", 2 * base, gateEvicted},
			{probeOK, "readmit", 0, gateBenched},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			co, err := New([]string{w}, Options{Backoff: base, BackoffMax: max, HeartbeatFails: fails})
			if err != nil {
				t.Fatal(err)
			}
			st := &runState{workers: map[string]*workerRow{}}
			now := time.Unix(1000, 0)
			for i, s := range tt.steps {
				ev := co.observe(st, w, s.in, now)
				if ev.Kind != s.kind {
					t.Fatalf("step %d: event %q, want %q", i, ev.Kind, s.kind)
				}
				bench := ev.RetryIn
				if lo := time.Duration(0.7 * float64(s.bench)); bench < lo || bench > s.bench {
					t.Fatalf("step %d: bench %v, want within [%v, %v]", i, bench, lo, s.bench)
				}
				verdict, wait := st.gate(w, now)
				if verdict != s.verdict {
					t.Fatalf("step %d: gate %d, want %d", i, verdict, s.verdict)
				}
				if verdict == gateBenched && s.bench > 0 {
					if wait != bench {
						t.Fatalf("step %d: gate waits %v, want the %v bench", i, wait, bench)
					}
					if v, _ := st.gate(w, now.Add(bench)); v != gateOpen {
						t.Fatalf("step %d: gate %d once the bench ran out, want open", i, v)
					}
				}
			}
		})
	}
}
