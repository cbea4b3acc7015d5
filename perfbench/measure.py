"""One measured pass of a workload, in a fresh process.

``run.py`` generates the corpus, then starts this script once per pass, so
every pass runs its stages from the same state and peak RSS covers only the
workload's stages, not the generator. Usage:
``python3 perfbench/measure.py PLAN.json OUT.json`` with the plan written by
``run.py`` into the workload directory.

Untraced (trace=0): the loop stages run once, in order, with the reference
computation timed before the first stage and after each, to track the
host's speed through the pass. ``import_s`` is the time to import the
package's CLI before the first stage.
Traced (trace=1): every stage runs three times: a warm-up pass, a pass under
the tracer, whose patches are then removed, and an untraced pass. The traced
wall minus the untraced wall is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

import gen
from pipeline import WORKLOADS, Runner, reference_s


def _pass(runner, stages, ref_walls=None):
    """Run stages in order; time the reference before each and after the last."""
    t0 = time.perf_counter()
    for stage in stages:
        if ref_walls is not None:
            ref_walls.append(reference_s())
        runner.run(stage)
    if ref_walls is not None:
        ref_walls.append(reference_s())
    return time.perf_counter() - t0


def _rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def main(plan_path, out_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(plan_path)))
    workload = WORKLOADS[plan["workload"]]
    corpora = {k: gen.Corpus(**v) for k, v in plan["corpora"].items()}
    runner = Runner(workload, corpora)
    result = {}
    t0 = time.perf_counter()
    import xdvae.cli  # noqa: F401
    result["import_s"] = time.perf_counter() - t0
    if not plan["trace"]:
        # The reference keeps its arrays resident all through the pass; its
        # share is taken off the peak, which is left to the stages.
        before = _rss_mb()
        reference_s()
        reference_mb = _rss_mb() - before
        result["ref_walls"] = []
        _pass(runner, workload.loop, result["ref_walls"])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["peak_rss_mb"] = peak_mb - reference_mb
        result["reference_rss_mb"] = reference_mb
    else:
        from tracing import Tracer, layer_metrics

        stages = workload.stages()
        _pass(runner, stages)   # warm-up, so first-call costs land on neither side
        tracer = Tracer()
        tracer.install()
        runner.before_stage = lambda i: setattr(tracer, "run", i)
        try:
            traced = _pass(runner, stages)
        finally:
            tracer.restore()
            runner.before_stage = None
        untraced = _pass(runner, stages)
        layers = layer_metrics(tracer.spans)
        layers.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                       "trace.overhead_s": traced - untraced})
        result["layers"] = layers
        result["unpatched"] = tracer.missing
        tracer.dump(plan["spans_path"])
    result["records"] = [dataclasses.asdict(r) for r in runner.records]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
