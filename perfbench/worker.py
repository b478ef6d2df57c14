"""One measuring process of the benchmark; run.py starts a fresh one per job.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  timed   set up, then answer passes 0, 1, ... until the workload's minimum
          number of passes is done and another pass, at the median pass time
          so far, would end after SECONDS;
  setup   set up only (import, query building and warm-up), then stop;
  fixed   answer exactly TRACE_PASSES passes, untraced;
  traced  answer the same passes with every layer traced, and write the spans
          to perfbench/out/.

The process prints one JSON object as its last stdout line and exits 1 when
an answer was wrong or a query raised.  PYTHONPATH must reach coxforge.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
TRACE_PASSES = 2
# no pass starts after this many seconds, whatever the minimum pass count
HARD_STOP_S = 120.0
MAX_REPORTED_ERRORS = 5


class Answerer:
    """Answers queries in a closed loop and keeps the tally."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.latencies_ms = []

    def answer(self, queries, timed: bool) -> float:
        """Answer every query in order, then check them; returns the wall
        seconds spent answering."""
        answers = []
        pass_start = perf_counter()
        for query in queries:
            if self.tracer is not None:
                self.tracer.query_id = self.attempted + len(answers)
            start = perf_counter()
            try:
                answers.append((True, query.run()))
            except Exception:  # a raised answer is a failed query, not a crash
                answers.append((False, traceback.format_exc()))
            if timed:
                self.latencies_ms.append((perf_counter() - start) * 1000.0)
        elapsed = perf_counter() - pass_start
        for query, (ok, answer) in zip(queries, answers):
            self.attempted += 1
            if ok and query.check(answer):
                continue
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                detail = answer if not ok else f"wrong answer {answer!r}"
                print(f"FAILED {query.label}: {detail}", file=sys.stderr)
        return elapsed


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    started = perf_counter()
    import workloads  # imports coxforge; part of set-up

    workload = workloads.make(name, seed)
    answerer = Answerer()
    answerer.answer(workload.warm_up_queries(), timed=False)
    setup_s = perf_counter() - started
    result = {"mode": mode, "workload": name, "seed": seed, "setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            answerer.tracer = tracer
        pass_s = []
        peak_rss = None
        queries_per_pass = None
        loop_start = perf_counter()
        p = 0
        while True:
            queries = workload.queries(p)
            queries_per_pass = queries_per_pass or len(queries)
            pass_s.append(answerer.answer(queries, timed=True))
            p += 1
            if p == workload.min_passes:
                peak_rss = _peak_rss_mib()
            elapsed = perf_counter() - loop_start
            if mode in ("fixed", "traced"):
                if p == TRACE_PASSES:
                    break
            elif ((p >= workload.min_passes
                   and elapsed + statistics.median(pass_s) > seconds)
                  or elapsed >= HARD_STOP_S):
                break
        result.update(pass_s=pass_s, latencies_ms=answerer.latencies_ms,
                      min_samples=workload.min_passes * queries_per_pass,
                      peak_rss_mib=peak_rss if peak_rss is not None else _peak_rss_mib(),
                      rss_after_passes=min(p, workload.min_passes))
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_rows(p, len(answerer.latencies_ms), sum(pass_s))
            spans = HERE / "out" / f"spans-{name}-seed{seed}.tsv.gz"
            tracer.write_spans(spans)
            result["spans"] = len(tracer.span_name)
            result["spans_file"] = str(spans.relative_to(HERE.parent))
    result.update(attempted=answerer.attempted, failed=answerer.failed)
    print(json.dumps(result))
    return 1 if answerer.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
