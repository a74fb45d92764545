"""One workload process of the canalgeo benchmark.

usage: python3 bench/worker.py REQUEST.json

REQUEST is written by ``run.py`` and names the mode (``scene``, ``verify``,
or ``probe``: the untimed warm-up import), the input file, the output
directory, the ``--jobs`` width, whether to trace, and where to write the
result.  Timestamps in the result are CLOCK_MONOTONIC seconds, which on
Linux every process shares, so the parent can measure from the moment it
spawned this process.

Nothing but the standard library is imported before canalgeo, so the
set-up time is the program's own.
"""

import json
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child.

    A process pool's workers are children; their memory counts too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# per-call durations are kept for these names, for quantiles and maxima
SAMPLED = (
    "scene.entry",
    "jets.evaluate_jet.analytic",
    "jets.evaluate_jet.fd",
    "focal.adapted_frame_coefficients",
    "focal.rank_drop_singular_points",
)


def install_tracer():
    """Wrap the names through which canalgeo's layers call each other."""
    from tracer import Tracer

    tr = Tracer(SAMPLED)

    def plain(name, hot=False, after=None):
        return lambda fn: tr.wrap(fn, name, hot, after)

    def chart_counted(surface):
        return tr.wrap_chart(surface, "envelope.chart")

    def obj_bytes(text):
        tr.count("meshio.obj_bytes", len(text))
        return text

    def jet_path(fn):
        def evaluate_jet(surface, u):
            if surface.jet is not None:
                return tr.call("jets.evaluate_jet.analytic", True, fn, (surface, u), {})
            before = tr.chart_calls()
            try:
                return tr.call("jets.evaluate_jet.fd", True, fn, (surface, u), {})
            finally:
                tr.count("jets.fd_chart_calls", tr.chart_calls() - before)

        return evaluate_jet

    table = [
        # cli -> scene
        ("canalgeo.cli:validate_scene", plain("scene.validate_scene")),
        ("canalgeo.cli:run_scene", plain("scene.run_scene")),
        # scene -> every analysis layer
        ("canalgeo.scene:_entry_task", plain("scene.entry")),
        ("canalgeo.scene:make_surface", plain("catalog.make_surface")),
        ("canalgeo.scene:make_family", plain("catalog.make_family")),
        ("canalgeo.scene:detect_canal", plain("canal.detect_canal")),
        ("canalgeo.scene:causal_classify_family", plain("envelope.causal_classify_family")),
        ("canalgeo.scene:envelope_mesh", plain("envelope.envelope_mesh")),
        ("canalgeo.scene:adapted_frame_coefficients", plain("focal.adapted_frame_coefficients")),
        ("canalgeo.scene:singular_set", plain("focal.singular_set", hot=True)),
        ("canalgeo.scene:classify_tube_plane", plain("focal.classify_tube_plane", hot=True)),
        ("canalgeo.scene:classify_pencil", plain("conformal.classify_pencil", hot=True)),
        ("canalgeo.scene:lift_sphere", plain("conformal.lift_sphere", hot=True)),
        ("canalgeo.scene:obj_text", plain("meshio.obj_text", after=obj_bytes)),
        ("canalgeo.scene:singular_csv_text", plain("meshio.singular_csv_text")),
        ("canalgeo.scene:xyz_text", plain("meshio.xyz_text")),
        # library layers, as bound in their home modules (verify calls these)
        ("canalgeo.catalog:make_surface", plain("catalog.make_surface")),
        ("canalgeo.catalog:planar_canal_surface", plain("catalog.planar_canal_surface")),
        ("canalgeo.canal:detect_canal", plain("canal.detect_canal")),
        ("canalgeo.canal:evaluate_jet", jet_path),
        ("canalgeo.jets:evaluate_jet", jet_path),
        ("canalgeo.canal:build_tensors", plain("canal.build_tensors", hot=True)),
        ("canalgeo.canal:principal_spectrum", plain("canal.principal_spectrum", hot=True)),
        ("canalgeo.canal:contact_spheres", plain("canal.contact_spheres", hot=True)),
        ("canalgeo.envelope:SphereFamily.jet_at", plain("envelope.jet_at", hot=True)),
        ("canalgeo.envelope:envelope_surface", plain("envelope.envelope_surface", after=chart_counted)),
        ("canalgeo.focal:envelope_surface", plain("envelope.envelope_surface", after=chart_counted)),
        ("canalgeo.focal:adapted_frame_coefficients", plain("focal.adapted_frame_coefficients")),
        ("canalgeo.focal:singular_set", plain("focal.singular_set", hot=True)),
        ("canalgeo.focal:rank_drop_singular_points", plain("focal.rank_drop_singular_points")),
    ]
    for target, make in table:
        tr.patch(target, make)
    return tr


def trace_result(tr, path) -> dict:
    # the wrappers live in this process only: work done in child processes
    # (a process pool) is not in the spans, so say so rather than report 0
    child_s = child_cpu_s()
    if child_s > 0:
        tr.missing.append(f"spans of child processes ({child_s:.3f} s CPU)")
    tr.write(path)
    stats = tr.stats()
    fd_calls = stats.get("jets.evaluate_jet.fd", {}).get("calls", 0)
    values = {
        "meshio.obj_bytes": tr.counters.get("meshio.obj_bytes", 0),
        "jets.fd_chart_calls_per_jet": (
            tr.counters.get("jets.fd_chart_calls", 0) / fd_calls if fd_calls else 0
        ),
        "trace.missing": len(tr.missing),
        "trace.child_cpu_s": child_s,
    }
    return {"stats": stats, "values": values, "missing": tr.missing}


# ---------------------------------------------------------------------------
# modes


def probe(req) -> dict:
    import canalgeo.cli  # noqa: F401  (fills the file cache; not timed)

    return {"ready": clock()}


def scene(req) -> dict:
    t0 = clock()
    import canalgeo.cli

    ready = clock()
    tr = install_tracer() if req["trace"] else None
    argv = ["run", req["input"], "--out", req["out"], "--jobs", str(req["jobs"])]
    code = canalgeo.cli.main(argv)
    done = clock()
    out = {
        "ready": ready,
        "done": done,
        "peak_rss_mb": peak_rss_mb(),
        "exit_code": code,
        "values": {"cli.import_s": ready - t0},
    }
    if tr is not None:
        out["trace"] = trace_result(tr, req["trace_file"])
    return out


def verify(req) -> dict:
    import canalgeo  # noqa: F401

    tr = install_tracer() if req["trace"] else None
    from verify import VerifyRun

    run = VerifyRun(req["input"], tr)
    run.setup()
    ready = clock()
    run.analyse()
    done = clock()
    out = {
        "ready": ready,
        "done": done,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": run.attempted,
        "failed": run.failed,
    }
    out["problems"], out["values"] = run.gates()
    if tr is not None:
        out["trace"] = trace_result(tr, req["trace_file"])
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    result = {"probe": probe, "scene": scene, "verify": verify}[req["mode"]](req)
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
