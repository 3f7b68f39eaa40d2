#!/usr/bin/env python3
"""Repo benchmark: host cost of the CSALT simulator, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ccomp_csalt_cd --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # both workloads, one table

Builds perfbench/ (libcsalt from src/ plus the perfbench_cell program) as a
Release package under .bench_build/perfbench, then runs whole simulation
cells, one fresh single-threaded process each and one after another, for
about --seconds: a cell starts only if a typical cell of the run still
ends within --seconds, but every run has at least MIN_CELLS cells. Every
cell uses the same --seed, so
its simulated statistics must repeat exactly; a cell whose statistics
differ from the majority, whose invariant check reports a violation, which
retires too few instructions or which crashes counts as failed, and only
the cells that pass feed the metrics.

--trace 0 reports the end-to-end metrics (times are medians over the
cells, maps is pooled over all their measured slices);
--trace 1 runs untraced cells for a cell_s baseline, then traced cells that
probe each layer, and reports the per-layer metrics and the host-time
ledger. Once the build has succeeded, the last stdout line is always one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
a workload with no passing cell reports null values and the exit code is 1.
See perfbench/README.md for the workloads, metrics and ledger.
"""

import argparse
import collections
import json
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CELL_BIN = BUILD_DIR / "perfbench_cell"

CORES = 8  # every workload is an 8-core machine
MIN_CELLS = 3
CELL_TIMEOUT_S = 120
# Stop starting cells once a run would overrun this, whatever --seconds
# asks: a run must end well inside three minutes.
RUN_BUDGET_S = 150

WORKLOADS = {
    "ccomp_csalt_cd": "fig07 headline: ccomp pair, 2 VMs, 8 cores, 2-D walks, CSALT-CD; every layer busy",
    "gups_nested_walk": "gups pair, 2-D walks, conventional: walk-bound, no POM-TLB, no partitioning",
}

# Instructions per core of a cell: (warm-up, measured). ccomp_csalt_cd
# keeps the fig07 600K + 1M. A gups cell at that length takes 11-15 s, so
# gups runs 200K + 600K: about seven cells fit into a run, and three
# quarters of each cell is measured.
LENGTH = {
    "ccomp_csalt_cd": (600_000, 1_000_000),
    "gups_nested_walk": (200_000, 600_000),
}

END_TO_END = {  # name -> unit
    "maps": "M/s",
    "setup_s": "s",
    "cell_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "workloads.next_ns": "ns",
    "vm.mapping_ns": "ns",
    "vm.walk_ns": "ns",
    "vm.walks": "count",
    "vm.refs_per_walk": "refs/walk",
    "tlb.lookup_ns": "ns",
    "tlb.l2_misses": "count",
    "tlb.pom_lookup_ns": "ns",
    "tlb.pom_hit_rate": "ratio",
    "cache.data_access_ns": "ns",
    "cache.translation_access_ns": "ns",
    "cache.l2_hit_rate": "ratio",
    "cache.l3_hit_rate": "ratio",
    "mem.dram_access_ns": "ns",
    "mem.dram_accesses": "count",
    "core.repartition_ns": "ns",
    "core.repartitions": "count",
    "sim.build_s": "s",
    "sim.warmup_s": "s",
    "sim.teardown_s": "s",
    "sim.step_ns": "ns",
    "sim.ipc": "instr/cycle",
    "sim.cycles": "cycles",
    "sim.rss_build_mb": "MB",
    "sim.rss_growth_mb": "MB",
    "sim.ledger_residual": "share",
    "sim.trace_overhead_s": "s",
}

# Probed layer -> (per-call metric, probed layers whose calls nest inside
# it, calls per measured slice from the cell's counts). Children precede
# their parents, so one pass computes every self time. A probe batch is
# [ns, calls, nested dram, nested translation, nested repartition].
NESTED = ("mem.dram_access", "cache.translation_access", "core.repartition")
LEDGER = {
    "mem.dram_access": ("mem.dram_access_ns", (), lambda c: c["dram_accesses"]),
    "core.repartition": ("core.repartition_ns", (),
                         lambda c: c["repartitions"]),
    "cache.translation_access": (
        "cache.translation_access_ns", ("mem.dram_access", "core.repartition"),
        lambda c: c["walk_refs"] + c["pom_lookups"] + c["pom_second_probes"]),
    "cache.data_access": ("cache.data_access_ns",
                          ("mem.dram_access", "core.repartition"),
                          lambda c: c["memrefs"]),
    "tlb.pom_lookup": ("tlb.pom_lookup_ns", ("cache.translation_access",),
                       lambda c: c["pom_lookups"]),
    "vm.walk": ("vm.walk_ns", ("cache.translation_access",),
                lambda c: c["walks"]),
    "tlb.lookup": ("tlb.lookup_ns", (), lambda c: c["memrefs"]),
    "vm.mapping": ("vm.mapping_ns", (), lambda c: c["memrefs"]),
    "workloads.next": ("workloads.next_ns", (), lambda c: c["memrefs"]),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the Release benchmark package."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_cell(workload, seed, trace, warmup, quota):
    """One cell in a fresh process; returns its JSON record or None."""
    cmd = [str(CELL_BIN), "--workload", workload, "--seed", str(seed),
           "--warmup", str(warmup), "--quota", str(quota),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: cell timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"perfbench: cell exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"perfbench: unparsable cell output: {proc.stdout[-200:]!r}")
        return None


def signature(cell):
    """The simulated outputs that must repeat exactly at one seed."""
    sim = cell["sim"]
    return (sim["total_memrefs"], sim["total_instructions"], sim["cycles"],
            sim["walks"])


def check_cells(cells, min_instructions=0):
    """Sort a run's cells into passed and failed. A cell fails when it
    crashed (None), reports an invariant violation, retired too few
    instructions, or has simulated statistics that differ from the
    majority of the run's cells. Returns (passed cells, failure reasons)."""
    passed = []
    ok = [c for c in cells if c is not None]
    reasons = ["crashed"] * (len(cells) - len(ok))
    if ok:
        reference = collections.Counter(map(signature, ok)).most_common(1)[0][0]
    for c in ok:
        if c["violations"]:
            reasons.append(f"invariant violation: {c.get('first_violation')}")
        elif signature(c) != reference:
            reasons.append(f"non-deterministic: {signature(c)} != {reference}")
        elif c["sim"]["total_instructions"] < min_instructions:
            reasons.append("retired fewer instructions than the quota")
        else:
            passed.append(c)
    return passed, reasons


def layer_costs(probes):
    """Per probed layer: (inclusive ns/call, self ns/call). Self time
    subtracts the nested calls into other probed layers at their
    inclusive cost, so each host nanosecond counts once; a batch median
    below zero (noise when a child dominates) is clamped to 0."""
    inclusive, self_ns = {}, {}
    for name, (_, children, _) in LEDGER.items():
        batches = probes.get(name, [])
        if not batches:
            inclusive[name] = self_ns[name] = 0.0
            continue
        inclusive[name] = statistics.median(b[0] / b[1] for b in batches)
        selfs = []
        for b in batches:
            nested_ns = sum(b[2 + NESTED.index(ch)] * inclusive[ch]
                            for ch in children)
            selfs.append((b[0] - nested_ns) / b[1])
        self_ns[name] = max(0.0, statistics.median(selfs))
    return inclusive, self_ns


def ledger(cell):
    """Reconcile Σ(self ns × calls per measured slice) with the measured
    slice. Returns (rows, explained_s, measured_s, residual share)."""
    inclusive, self_ns = layer_costs(cell["probes"])
    counts = cell["counts"]
    rows = []
    for name, (_, _, calls_of) in LEDGER.items():
        calls = calls_of(counts)
        rows.append({"layer": name, "calls": calls,
                     "inclusive_ns": inclusive[name], "self_ns": self_ns[name],
                     "term_s": self_ns[name] * calls / 1e9})
    explained = sum(r["term_s"] for r in rows)
    measured = cell["time"]["measured_s"]
    return rows, explained, measured, (measured - explained) / measured


def median_of(cells, key):
    return statistics.median(key(c) for c in cells)


def end_to_end_metrics(cells):
    """maps pools every measured slice of the run (all accesses over all
    their host seconds): host noise here comes in spells of seconds that
    make single cells bimodal, and the pooled rate is steadier across
    runs than the median cell. The times are medians over cells."""
    memrefs = sum(c["sim"]["total_memrefs"] for c in cells)
    measured = sum(c["time"]["measured_s"] for c in cells)
    return {
        "maps": memrefs / measured / 1e6,
        "setup_s": median_of(cells, lambda c: c["time"]["setup_s"]),
        "cell_s": median_of(cells, lambda c: c["time"]["cell_s"]),
        "peak_rss_mb": median_of(cells, lambda c: c["rss"]["peak_mb"]),
    }


def per_layer_metrics(traced, untraced_cell_s):
    """Per-layer metrics from the traced cells (medians where several)."""
    values = collections.defaultdict(list)
    for cell in traced:
        counts, t = cell["counts"], cell["time"]
        rows, _, measured, residual = ledger(cell)
        for row in rows:
            values[LEDGER[row["layer"]][0]].append(row["self_ns"])
        values["vm.walks"].append(counts["walks"])
        values["vm.refs_per_walk"].append(
            counts["walk_refs"] / counts["walks"] if counts["walks"] else 0.0)
        values["tlb.l2_misses"].append(counts["l2_tlb_misses"])
        values["tlb.pom_hit_rate"].append(counts["pom_hit_rate"])
        values["cache.l2_hit_rate"].append(counts["l2_hit_rate"])
        values["cache.l3_hit_rate"].append(counts["l3_hit_rate"])
        values["mem.dram_accesses"].append(counts["dram_accesses"])
        values["core.repartitions"].append(counts["repartitions"])
        values["sim.build_s"].append(t["build_s"])
        values["sim.warmup_s"].append(t["warmup_s"])
        values["sim.teardown_s"].append(t["teardown_s"])
        values["sim.step_ns"].append(measured * 1e9 / counts["memrefs"])
        values["sim.ipc"].append(counts["ipc"])
        values["sim.cycles"].append(cell["sim"]["cycles"])
        values["sim.rss_build_mb"].append(cell["rss"]["build_mb"])
        values["sim.rss_growth_mb"].append(
            cell["rss"]["peak_mb"] - cell["rss"]["build_mb"])
        values["sim.ledger_residual"].append(residual)
        values["sim.trace_overhead_s"].append(
            t["cell_s"] + t["probe_s"] - untraced_cell_s)
    return {name: statistics.median(v) for name, v in values.items()}


def print_ledger(cell):
    rows, explained, measured, residual = ledger(cell)
    print(f"ledger ({cell['workload']}, seed {cell['seed']}): calls are per "
          f"measured slice ({cell['counts']['memrefs']} accesses); self ns "
          f"excludes nested probed layers")
    print(f"  {'layer':26s} {'calls':>12s} {'incl ns':>9s} {'self ns':>9s} "
          f"{'self*calls s':>13s} {'% measured':>10s}")
    for r in rows:
        print(f"  {r['layer']:26s} {r['calls']:12.0f} {r['inclusive_ns']:9.1f} "
              f"{r['self_ns']:9.1f} {r['term_s']:13.4f} "
              f"{100 * r['term_s'] / measured:9.1f}%")
    print(f"  {'sum(self ns x calls)':26s} {'':12s} {'':9s} {'':9s} "
          f"{explained:13.4f} {100 * explained / measured:9.1f}%")
    print(f"  {'measured slice':26s} {'':12s} {'':9s} {'':9s} {measured:13.4f} "
          f"{100.0:9.1f}%")
    print(f"  residual (measured - sum) / measured = {residual:.4f}")


def print_spans(cell):
    print(f"spans ({cell['workload']}, traced cell; seconds from process start)")
    for s in cell["spans"]:
        depth = 0
        parent = s["parent"]
        while parent >= 0:
            depth += 1
            parent = cell["spans"][parent]["parent"]
        print(f"  {'  ' * depth}{s['name']:32s} {s['start_s']:9.4f} "
              f"{s['end_s'] - s['start_s']:9.4f}")


def run_workload(workload, seed, seconds, trace, warmup, quota):
    """All cells of one run. Returns (cells, traced cells, failure reasons,
    metrics); metrics come from the passing cells only, and are None when
    no cell (or, traced, no traced cell) passed."""
    start = time.monotonic()
    cells, traced = [], []
    took = {False: [], True: []}  # host seconds of each cell process

    def keep_going(runs, traced_cell, share, minimum):
        """Start another cell until `minimum` have run, then only while a
        typical cell still ends by `share` of --seconds."""
        elapsed = time.monotonic() - start
        longest = max(took[False] + took[True], default=0.0)
        if elapsed + 1.5 * longest > RUN_BUDGET_S:
            return False
        typical = statistics.median(took[traced_cell] or took[False] or [0.0])
        return len(runs) < minimum or elapsed + typical <= seconds * share

    def launch(runs, traced_cell):
        t0 = time.monotonic()
        runs.append(run_cell(workload, seed, traced_cell, warmup, quota))
        took[traced_cell].append(time.monotonic() - t0)

    while keep_going(cells, False, 0.5 if trace else 1.0,
                     2 if trace else MIN_CELLS):
        launch(cells, False)
    while trace and keep_going(traced, True, 1.0, 1):
        launch(traced, True)

    passed, reasons = check_cells(cells + traced,
                                  min_instructions=CORES * quota)
    passed_ids = {id(c) for c in passed}
    good = [c for c in cells if id(c) in passed_ids]
    good_traced = [c for c in traced if id(c) in passed_ids]
    if not good or (trace and not good_traced):
        metrics = None
    elif trace:
        metrics = per_layer_metrics(
            good_traced, median_of(good, lambda c: c["time"]["cell_s"]))
    else:
        metrics = end_to_end_metrics(good)
    return cells, traced, reasons, metrics


def report(workload, seed, cells, traced, reasons, metrics, trace):
    """Human-readable lines for one workload (stdout, before the JSON)."""
    good = [c for c in cells + traced if c]
    if good:
        b = good[0]["build"]
        print(f"build: {b['type']} ({b['compiler']}, flags '{b['cxx_flags'].strip()}', "
              f"LTO {b['ipo']})")
    print(f"workload {workload}, seed {seed}: {len(cells)} untraced + "
          f"{len(traced)} traced cells, {WORKLOADS[workload]}")
    for c in good:
        t = c["time"]
        print(f"  cell{' (traced)' if 'probes' in c else ''}: maps {c['maps']:.4f} "
              f"setup {t['setup_s']:.3f}s measured {t['measured_s']:.3f}s "
              f"teardown {t['teardown_s']:.3f}s cell {t['cell_s']:.3f}s "
              f"rss {c['rss']['peak_mb']:.1f}MB check {t['check_s']:.3f}s")
    if trace and metrics:
        last = next(c for c in reversed(traced) if c)
        print_spans(last)
        print_ledger(last)
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        if metrics and name in metrics:
            print(f"  {name:28s} {metrics[name]:16.6f} {unit}")
    print(f"  failed cells: {len(reasons)} of {len(cells) + len(traced)}"
          + "".join(f"\n    {r}" for r in reasons))


def result_json(correct, attempted, failed, metrics, units):
    """The result line; a metric missing from `metrics` is null."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()}})


def main(argv=None, length=None):
    """The command line. The cell length (warm-up, measured instructions
    per core; None means the workload's LENGTH) is not an option: every
    run of the benchmark has the same cell length, and only the
    benchmark's own tests shorten it."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    measured_all = True
    combined = {}
    for name in names:
        cells, traced, reasons, metrics = run_workload(
            name, args.seed, args.seconds, args.trace,
            *(length or LENGTH[name]))
        attempted += len(cells) + len(traced)
        failed += len(reasons)
        report(name, args.seed, cells, traced, reasons, metrics, args.trace)
        measured_all = measured_all and metrics is not None
        for metric, value in (metrics or {}).items():
            combined[metric if len(names) == 1 else f"{name}.{metric}"] = value
    if len(names) > 1:
        units = {f"{n}.{m}": u for n in names for m, u in units.items()}
    print(result_json(failed == 0 and measured_all, attempted, failed,
                      combined, units))
    return 0 if measured_all else 1


if __name__ == "__main__":
    # SIGTERM raises SystemExit, so subprocess.run kills the running cell
    # and waits for it before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
