# Convenience targets; PYTHONPATH=src mirrors the tier-1 verify command.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Worker processes for audit sweeps (seeds are independent and the
# reports are byte-identical to a sequential run; see docs/PERF.md).
JOBS ?= 4

.PHONY: test audit gates-diff knobs ledger ledger-smoke ledger-pairs ledger-events ledger-heap

test:
	$(PYTHON) -m pytest -x -q

# The audit gates: each row of repro.audit.PROFILES is one -- `audit` for
# the default chaos row, `audit-<row>` for the others (audit-fleet,
# audit-failover, audit-geo, audit-proxy, audit-integrity) -- and the row
# sizes its sweep; what it arms, injects and judges is the "Profiles"
# table of docs/AUDIT.md.  Each exits nonzero on an invariant violation or
# a failed gate.  `make audit` runs the full tier-1 suite first, and its
# sweep under three string-hash seeds whose reports must be byte-identical
# (tools/hashseeds.py).
audit: test
	python3 tools/hashseeds.py $(PYTHON) -m repro gates audit --jobs $(JOBS)

audit-%:
	$(PYTHON) -m repro gates $@ --jobs $(JOBS)

# Behaviour-preservation check: every gate above rendered in BASE (a rev,
# checked out into a temporary git worktree, or a checkout directory) and
# in this checkout for the same SWEEP seeds, compared seed by seed
# (tools/gates_diff.py).  Exits nonzero on any difference outside the
# EXPECT seeds -- the ones a bug fix is known to change.
#   make gates-diff BASE=HEAD~1
#   make gates-diff BASE=HEAD~1 SWEEP=24 EXPECT=5,19
SWEEP ?= 20
gates-diff:
	python3 tools/gates_diff.py --base $(BASE) --sweep $(SWEEP) --jobs $(JOBS) $(if $(EXPECT),--expect $(EXPECT))

# Every *Config dataclass field under src/ with the number of sites that
# set it in src/, bench/, examples/ and tests/
# (tools/knob_census.py): where a diet PR starts.  Print-only; CI runs it
# with `--max N` as a ratchet on the field total.
knobs:
	python3 tools/knob_census.py

# The repo benchmark (BENCHMARK.json, bench/README.md): four seeded
# workloads, the end-to-end pass plus the traced per-layer pass; results
# land in bench/out/.  Compare two runs with `python3 -m bench compare`.
ledger:
	python3 -m bench run --seed 1 --trace 1

# The benchmark's own smoke test (every workload at scale 0.02, both
# passes, compare); not part of tier-1.
ledger-smoke:
	python3 -m pytest bench -q

# Before/after for a perf claim: PAIRS alternating runs of a workload at
# BASE (checked out into a temporary git worktree) and in this checkout,
# with each side's median and quartiles, pairs won, and the
# choosing-metrics verdict per end-to-end metric (tools/ledger_pairs.py).
# WORKLOAD takes one name, a comma list, or `all`: one table per workload.
#   make ledger-pairs BASE=HEAD~1 WORKLOAD=commit_burst
#   make ledger-pairs BASE=HEAD~1 WORKLOAD=all PAIRS=4
PAIRS ?= 10
SEED ?= 1
ledger-pairs:
	python3 tools/ledger_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Where a workload's host time goes, event by event: ROUNDS rounds of
# WORKLOAD with a counting EventLoop.step, one row per kind of callback
# (deliveries split by payload type) with events per op, host us per event
# and share of the timed window (tools/event_mix.py).  For ranking what to
# look at next; claims go through ledger-pairs.
#   make ledger-events WORKLOAD=chaos_audit
ROUNDS ?= 2
ledger-events:
	python3 tools/event_mix.py --workload $(WORKLOAD) --seed $(SEED) --rounds $(ROUNDS)

# What the heap holds, the memory counterpart of ledger-events: one round
# of WORKLOAD in-process with tracemalloc started at the timed window; it
# prints the traced peak, the heap live at the window's end, the top 15
# allocation sites and the images only a redo memo holds
# (tools/heap_sites.py).  For where to look; memory claims go through
# ledger-pairs' peak_rss_mb.
#   make ledger-heap WORKLOAD=commit_burst
ledger-heap:
	python3 tools/heap_sites.py --workload $(WORKLOAD) --seed $(SEED)
