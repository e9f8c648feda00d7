package gpu

import (
	"bytes"
	"runtime"
	"testing"
)

// goroutineID is the calling goroutine's number, read off its stack header.
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestOneSchedulerLaunchStaysOnLauncher: a device made under GOMAXPROCS(1)
// cuts a launch into one chunk a scheduler, so a 64-item launch is one chunk
// that never leaves the launching goroutine, and every item runs exactly once.
// Cut a chunk a CPU instead, a launch under a CPU quota queued more chunks
// than there were schedulers to run them.
func TestOneSchedulerLaunchStaysOnLauncher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := MustNew(RTX3090(), true)
	if d.Workers() != 1 {
		t.Fatalf("%d host workers under GOMAXPROCS(1), want 1", d.Workers())
	}
	launcher := goroutineID()
	ran := make([]int, 64)
	k := Kernel{Name: "one chunk", Items: len(ran), RegsPerThread: 32, WordOps: 1}.over(func(i int) {
		if id := goroutineID(); id != launcher {
			t.Errorf("item %d ran on goroutine %s, not the launcher's %s", i, id, launcher)
		}
		ran[i]++
	})
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("item %d ran %d times", i, n)
		}
	}
}

// TestJobLaunchChargesAsLaunch: a launch whose body a job takes is decided,
// charged and counted as one that runs at once — the same fault draws, the
// same modelled clock and counters — and once the job runs, every item has run
// once and an injected corruption has reached the item it chose, after the
// body wrote it.
func TestJobLaunchChargesAsLaunch(t *testing.T) {
	const launches, items = 40, 12
	run := func(job *Job) (Stats, [][]int) {
		d := MustNew(SmallTestDevice(), true)
		d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 3, AbortProb: 0.1, CorruptProb: 0.2, StallProb: 0.1}))
		outs := make([][]int, launches)
		for l := range outs {
			out := make([]int, items)
			outs[l] = out
			k := Kernel{Name: "job", Items: items, RegsPerThread: 16, WordOps: 4, Job: job,
				Body: poisonable{LaneFunc: func(i int) { out[i] += 10 }, poison: func(i int) { out[i]++ }}}
			_, _ = d.Launch(k)
		}
		if job != nil {
			var parts []Part
			parts = append(parts, job.Parts()...)
			job.Run(LaneFunc(func(i int) {
				for _, p := range parts {
					if i < p.Items {
						p.Body.Lanes(i, i+1)
						return
					}
					i -= p.Items
				}
			}), launches*items, 2)
		}
		st := d.Stats()
		st.WallKernelTime = 0
		return st, outs
	}
	now, nowOut := run(nil)
	deferred, jobOut := run(new(Job))
	if now != deferred {
		t.Fatalf("stats differ:\nat once: %+v\nin a job: %+v", now, deferred)
	}
	if now.FaultCorruptions != 0 || now.KernelLaunches == launches || now.KernelLaunches == 0 {
		t.Fatalf("want some launches to fail and some to carry a silent corruption: %+v", now)
	}
	poisoned := 0
	for l := range nowOut {
		for i := range nowOut[l] {
			if nowOut[l][i] != jobOut[l][i] {
				t.Fatalf("launch %d item %d: %d at once, %d in a job", l, i, nowOut[l][i], jobOut[l][i])
			}
			poisoned += nowOut[l][i] % 10
		}
	}
	if poisoned == 0 {
		t.Fatal("no injected corruption reached an item")
	}
}
