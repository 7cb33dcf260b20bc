"""Per-layer metrics from the spans of one traced pass.

The parent records a ``pass`` span and one ``process`` span per `pba`
process (spawn to exit); each child's spans hang below its process span.
A span's self time is its duration minus the durations of its children, so
the self times of a pass add up to the pass's wall time.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict

from checks import vertex_range

PROPAGATE = ("propagate.psa_propagate", "propagate.propagate_mixed", "propagate.propagate_pboxes")


def span_tree(pass_span: tuple, processes: list) -> list:
    """Flatten a traced pass to [name, start, end, parent] rows, root first.

    ``processes`` holds (spawn, exit, child record) per process.
    """
    rows = [["pass", pass_span[0], pass_span[1], -1]]
    for spawn, end, record in processes:
        proc = len(rows)
        rows.append(["process", spawn, end, 0])
        base = len(rows)
        for name, start, stop, parent in child_spans(record):
            rows.append([name, start, stop, proc if parent < 0 else base + parent])
    return rows


def child_spans(record: dict) -> list:
    """(name, start, end, parent index) of a child's spans; parent -1 is top level."""
    if "spans" not in record:
        return []
    s = record["spans"]
    cols = {}
    for key, code in (("nid", "i"), ("start", "d"), ("end", "d"), ("parent", "i")):
        cols[key] = array(code)
        cols[key].frombytes(s[key])
    names = s["names"]
    return [(names[n], a, b, p) for n, a, b, p in zip(cols["nid"], cols["start"], cols["end"], cols["parent"])]


def self_times(rows: list) -> tuple[dict, dict, float]:
    """Per-name (inclusive, self) totals and the most negative self time seen."""
    child = [0.0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0:
            child[parent] += end - start
    inclusive: dict = defaultdict(float)
    own: dict = defaultdict(float)
    worst = 0.0
    for (name, start, end, parent), c in zip(rows, child):
        inclusive[name] += end - start
        own[name] += end - start - c
        worst = min(worst, end - start - c)
    return inclusive, own, worst


def _boxes(optimizer: list, durations: list) -> list[tuple[float, int]]:
    """(seconds, evaluations) per box: a MIN and a MAX search of the same bounds."""
    out = []
    k = 0
    while k < len(optimizer):
        pair = 2 if k + 1 < len(optimizer) and optimizer[k + 1]["bounds"] == optimizer[k]["bounds"] else 1
        out.append((sum(durations[k:k + pair]), sum(r["evaluations"] for r in optimizer[k:k + pair])))
        k += pair
    return out


def shortfall(result: dict) -> bool:
    """A MAX search on the four-state model ending below the exact vertex max."""
    ctx = result["four_state"]
    if result["sense"] != "max" or ctx is None:
        return False
    _, exact = vertex_range(ctx["fixed"], ctx["names"], result["bounds"])
    return result["value"] < exact - 1e-6 * abs(exact) if math.isfinite(exact) else True


def pass_layers(pass_span: tuple, processes: list) -> dict:
    """Per-layer figures of one traced pass, plus the raw per-box samples."""
    rows = span_tree(pass_span, processes)
    inclusive, own, worst = self_times(rows)
    records = [r for _, _, r in processes]
    counts = defaultdict(int)
    for r in records:
        for key, value in r.get("counts", {}).items():
            counts[key] += value
    top_propagate = sum(
        end - start
        for name, start, end, parent in rows
        if name in PROPAGATE and rows[parent][0] not in PROPAGATE
    )
    optimizer, boxes = [], []
    for r in records:
        durations = [stop - start for name, start, stop, _ in child_spans(r) if name == "optimize.box"]
        optimizer += r.get("optimizer", [])
        boxes += _boxes(r.get("optimizer", []), durations)
    evaluations = sum(o["evaluations"] for o in optimizer)
    calls = counts["model_calls"]
    return {
        "wall": pass_span[1] - pass_span[0],
        "self_sum": sum(own.values()),
        "worst_self": worst,
        "self": dict(own),
        "box_s": [b[0] for b in boxes],
        "box_evals": [b[1] for b in boxes],
        "metrics": {
            "cli.import_s": inclusive["cli.import"],
            "distributions.import_s": inclusive["distributions.import"],
            "process.startup_s": own["process"],
            "cli.load_config_s": inclusive["cli.load_config"],
            "cli.export_s": inclusive["cli.export_curve"],
            "pbox.build_s": inclusive["pbox.build"],
            "slicing.discretize_s": inclusive["slicing.discretize"],
            "slicing.boxes": counts["boxes"],
            "slicing.distinct_ratio": counts["distinct_boxes"] / counts["boxes"] if counts["boxes"] else 0.0,
            "optimize.self_s": own["optimize.box"],
            "optimize.share": own["optimize.box"] / top_propagate if top_propagate else 0.0,
            "optimize.overhead_us_per_eval": 1e6 * own["optimize.box"] / evaluations if evaluations else 0.0,
            "optimize.unconverged": sum(not o["converged"] for o in optimizer),
            "optimize.max_shortfall_boxes": sum(shortfall(o) for o in optimizer),
            "models.self_s": own["models.call"],
            "models.share": own["models.call"] / top_propagate if top_propagate else 0.0,
            "models.us_per_call": 1e6 * own["models.call"] / calls if calls else 0.0,
            "models.calls": calls,
            "models.distinct_ratio": counts["distinct_model_args"] / calls if calls else 0.0,
            "propagate.self_s": sum(own[name] for name in PROPAGATE),
            "propagate.assemble_s": inclusive["propagate.assemble"],
            "distributions.ppf_s": inclusive["distributions.ppf"],
            "decision.expected_interval_s": inclusive["decision.expected_interval"],
            "decision.choose_s": inclusive["decision.choose"],
            "trace.wall_s": pass_span[1] - pass_span[0],
        },
    }
