"""Span tracing around clusterforge's public layer functions, and its summary.

``install`` replaces each traced function by a wrapper in every
``clusterforge`` module that bound it (methods are patched on their
class).  Each wrapper records one span ``(name, id, parent id, start, end,
terms)`` in memory; a pass hands the list to the parent process when it
ends, and ``layer_metrics`` turns it into per-layer numbers.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

_CS = ("calls", "self_s")
# (span name, module, attribute path, stats reported).  The command-level
# functions are traced so that cli.main's self time is only argparse, JSON
# load and emit.
TARGETS = (
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", _CS + ("terms_out",)),
    ("laurent.divide_exact", "laurent", "LaurentPoly.divide_exact", _CS + ("terms_out",)),
    ("laurent.compose", "laurent", "LaurentPoly.compose", _CS + ("terms_out",)),
    ("laurent.evaluate", "laurent", "LaurentPoly.evaluate", _CS),
    ("laurent.key", "laurent", "LaurentPoly.key", _CS),
    ("seeds.seed_mutate", "seeds", "seed_mutate", _CS + ("p50_s", "p99_s")),
    ("seeds.matrix_mutate", "seeds", "matrix_mutate", _CS),
    ("graphs.canonical_key", "graphs", "canonical_key", _CS + ("p99_s",)),
    ("graphs.classify_finite_type", "graphs", "classify_finite_type", ("self_s",)),
    ("graphs.explore_exchange_graph", "graphs", "explore_exchange_graph", ("self_s",)),
    ("tropical.delta_witness", "tropical", "delta_witness", ("self_s",)),
    ("double_bruhat.det", "double_bruhat", "det", _CS),
    ("double_bruhat.evaluate_minor", "double_bruhat", "evaluate_minor", _CS),
    ("double_bruhat.sample_cell", "double_bruhat", "sample_cell", _CS),
    ("double_bruhat.sample_totally_positive", "double_bruhat",
     "sample_totally_positive", _CS),
    ("double_bruhat.verify_cell_identities", "double_bruhat",
     "verify_cell_identities", ("self_s",)),
    ("double_bruhat.tp_criterion_check", "double_bruhat", "tp_criterion_check",
     ("self_s",)),
    ("util.parallel_map", "util", "parallel_map", ("calls", "total_s")),
    ("coxeter.cartan_data", "coxeter", "cartan_data", ("self_s",)),
    ("coxeter.word_product", "coxeter", "word_product", ("self_s",)),
    ("cli.main", "cli", "main", ("self_s",)),
)

NAMES = tuple(t[0] for t in TARGETS)


def install() -> list:
    """Wrap every target; return the list the spans are appended to."""
    spans: list = []
    stack = [-1]
    next_id = [0]
    clock = time.perf_counter
    package = {
        name: mod for name, mod in sys.modules.items()
        if name == "clusterforge" or name.startswith("clusterforge.")
    }

    def wrap(fn, name, count_terms):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                terms = len(result.terms) if count_terms and result is not None else 0
                spans.append((name, sid, parent, start, end, terms))

        return wrapper

    for name, module, attr, stats in TARGETS:
        count_terms = "terms_out" in stats
        owner = package[f"clusterforge.{module}"]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = wrap(original, name, count_terms)
        if outer:
            setattr(owner, leaf, wrapped)
            continue
        for mod in package.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return spans


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times of one traced pass, keyed by metric name.

    A layer that made no calls reads 0 in every stat.
    """
    child_time: dict = {}
    name_of: dict = {}
    for name, sid, parent, start, end, _ in spans:
        name_of[sid] = name
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stat = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "terms_out": 0} for n in NAMES}
    durations: dict = {n: [] for n in NAMES}
    tries = 0
    for name, sid, parent, start, end, n_terms in spans:
        dur = end - start
        s = stat[name]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child_time.get(sid, 0.0)
        s["terms_out"] += n_terms
        durations[name].append(dur)
        if name == "double_bruhat.det" and name_of.get(parent) == "double_bruhat.sample_cell":
            tries += 1
    out = {}
    for name, _, _, stats in TARGETS:
        ordered = sorted(durations[name])
        for st in stats:
            if st in ("p50_s", "p99_s"):
                out[f"{name}.{st}"] = _percentile(ordered, int(st[1:3]))
            else:
                out[f"{name}.{st}"] = stat[name][st]
    out["double_bruhat.sample_cell.tries"] = tries
    out["double_bruhat.sample_cell.accept_ratio"] = ratio(
        stat["double_bruhat.sample_cell"]["calls"], tries
    )
    return out


def ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def median_metrics(per_pass: list, exact: tuple) -> dict:
    """Median of each metric over the traced passes; keys ending in ``exact``
    are counts that repeat exactly, reported as the first pass's integer."""
    return {
        k: per_pass[0][k] if k.endswith(exact) else statistics.median(m[k] for m in per_pass)
        for k in per_pass[0]
    }
