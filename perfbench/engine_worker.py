"""Long-lived library process for the engine workload.

python3 engine_worker.py RING_DIR TRACE

Imports fusionrank, loads and validates the Z3, Z4 and Ising ring
documents from RING_DIR next to the builtin ring, prints one ready line,
then answers one JSON op per stdin line with one JSON line on stdout.
The ring objects live for the whole process, so their memo stays warm.
A {"op": "finish"} line is answered with the peak RSS (and the trace
summary when TRACE is 1) before the process exits.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's peak RSS since it started, from VmHWM.

    getrusage would also count the memory of the parent that spawned it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _graph(fr, doc):
    vertices = tuple(fr.GraphVertex(genus=g, legs=tuple(legs)) for g, legs in doc["vertices"])
    return fr.DualGraph(vertices, tuple(tuple(e) for e in doc["edges"]))


def run_op(fr, rings, op) -> dict:
    """Run one op; return its values and whether the oracle refused."""
    kind = op["op"]
    if kind == "noleaf":
        if "k" in op:
            graph = fr.moebius_ladder(op["k"])
        else:
            graph = fr.SimpleGraph(op["vertex_count"], tuple(tuple(e) for e in op["edges"]))
        return {"values": [str(fr.count_noleaf_subgraphs(graph))]}
    ring = rings[op["ring"]]
    if kind == "smooth":
        return {"values": [str(fr.rank_smooth(ring, op["genus"], op["legs"]))]}
    graph = _graph(fr, op["graph"])
    values = [str(fr.rank_graph(ring, graph))]
    try:
        values.append(str(fr.rank_bruteforce(ring, graph)))
    except fr.EnumerationLimitError:
        return {"values": values, "refused": True}
    return {"values": values, "refused": False}


def main(ring_dir: str, trace: bool) -> None:
    if trace:
        import tracer
    t0 = time.perf_counter()
    import fusionrank as fr

    import_s = time.perf_counter() - t0
    if trace:
        tracer.install()
    rings = {"builtin": fr.builtin_g2_level1()}
    for name in ("z3", "z4", "ising"):
        rings[name] = fr.load_fusion(Path(ring_dir, f"{name}.json").read_text())
    ready = {"ready": True, "import_s": import_s}
    if trace:
        ready["root_s"] = tracer.summary()["root_s"]
    print(json.dumps(ready), flush=True)

    for line in sys.stdin:
        op = json.loads(line)
        if op["op"] == "finish":
            reply = {"maxrss_kb": peak_rss_kb()}
            if trace:
                reply["trace"] = tracer.summary()
            print(json.dumps(reply), flush=True)
            return
        t0 = time.perf_counter()
        try:
            reply = run_op(fr, rings, op)
        except Exception as exc:  # reported as a failed op, the process carries on
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        reply["latency_s"] = time.perf_counter() - t0
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
