package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/sweep"
)

// checker compares every delivered report with the reference report of its
// job and counts the jobs attempted and failed. A job fails when its report
// differs from the reference, when it is delivered twice, or when its pass
// ends without delivering it.
type checker struct {
	refs      []metrics.Report
	got       []bool // delivered in the current pass
	attempted int
	failed    int
}

func newChecker(refs []metrics.Report) *checker {
	return &checker{refs: refs, got: make([]bool, len(refs))}
}

// begin starts a pass.
func (c *checker) begin() { clear(c.got) }

// deliver checks the report of job i.
func (c *checker) deliver(i int, rep metrics.Report) {
	c.attempted++
	if i < 0 || i >= len(c.refs) || c.got[i] {
		c.failed++
		return
	}
	c.got[i] = true
	if rep != c.refs[i] {
		c.failed++
	}
}

// end finishes a pass, counting every job it did not deliver as failed.
func (c *checker) end() {
	for _, ok := range c.got {
		if !ok {
			c.attempted++
			c.failed++
		}
	}
}

// instrsPerPass is the simulated instruction count of one pass.
func (c *checker) instrsPerPass() uint64 {
	var n uint64
	for _, r := range c.refs {
		n += r.TotalInstrs
	}
	return n
}

// cell identifies a built program: the engine builds one per (workload,
// scale) and shares it across the cell's jobs.
type cell struct {
	name  string
	scale int
}

func cellOf(job sweep.Job) cell { return cell{job.Workload, job.Scale} }

// reference computes every job's report through the plainest path —
// dynopt.Run with a fresh selector, with no scratch pooling, memo, shard or
// engine — and cross-checks the paper selectors at default parameters
// against the frozen reference selectors of internal/difftest, on every
// program of the workload.
func reference(w workload) (*checker, error) {
	jobs := w.jobs()
	progs := map[cell]*program.Program{}
	var order []cell
	refs := make([]metrics.Report, len(jobs))
	used := map[string]bool{}
	for i, job := range jobs {
		k := cellOf(job)
		p, ok := progs[k]
		if !ok {
			p = w.program(job)
			progs[k] = p
			order = append(order, k)
		}
		sel, err := sweep.NewSelector(job.Selector, job.Params)
		if err != nil {
			return nil, err
		}
		res, err := dynopt.Run(p, dynopt.Config{Selector: sel, CacheLimitBytes: job.CacheLimitBytes})
		if err != nil {
			return nil, fmt.Errorf("reference %s under %s: %w", job.Workload, job.Selector, err)
		}
		res.Report.Workload = job.Workload
		refs[i] = res.Report
		used[job.Selector] = true
	}
	for _, k := range order {
		for _, name := range sweep.PaperSelectors() {
			if !used[name] {
				continue
			}
			if err := crossCheck(progs[k], name); err != nil {
				return nil, fmt.Errorf("cross-check %s under %s: %w", k.name, name, err)
			}
		}
	}
	return newChecker(refs), nil
}

// crossCheck runs p under the production selector and its frozen reference
// twin and reports any divergence.
func crossCheck(p *program.Program, name string) error {
	for _, pair := range difftest.Pairs(core.DefaultParams()) {
		if pair.Name == name {
			return difftest.CompareRun(p, pair.Dense, pair.Ref)
		}
	}
	return fmt.Errorf("no frozen reference for selector %q", name)
}
