"""Command line front end: run scene files, validate them, list the catalog.

Exit codes: 0 success, 1 analysis errors present in a run, 2 invalid
scene, including a scene made invalid by a --tol or --grid value: overrides
are merged into the document before it is validated.  An unreadable scene
file or an output directory that cannot be created or written to is also
exit code 2, with one line on standard error.
The default output directory comes from --out, falling back to the
CANALGEO_OUT environment variable, then the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import family_catalog, surface_catalog
from .config import DEFAULT_TOLERANCES
from .errors import SceneError
from .scene import DEFAULT_GRIDS, load_scene, run_scene, validate_scene

__all__ = ["main"]


def _parse_overrides(pairs, caster, known, what):
    out = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"{what} override {item!r} is not NAME=VALUE")
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; known: {sorted(known)}"
            )
        try:
            out[name] = caster(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value for {what} {name!r}: {value!r}")
    return out


def _with_overrides(data, section: str, overrides: dict):
    """The scene document with ``overrides`` merged into one section, so that
    validation sees them; a malformed document or section is left for
    validation to report."""
    if not overrides or not isinstance(data, dict) or not isinstance(data.get(section, {}), dict):
        return data
    return {**data, section: {**data.get(section, {}), **overrides}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canalgeo",
        description="Conformal canal-surface analysis: lifts, envelopes, singular points.",
    )
    parser.add_argument("--version", action="version", version=f"canalgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scene file and write reports")
    run_p.add_argument("scene", help="path to a scene JSON file")
    run_p.add_argument(
        "--out",
        default=None,
        help="output directory (default: $CANALGEO_OUT or current directory)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="has no effect: every entry runs in this process; accepted, and "
        "checked to be at least 1, for existing callers",
    )
    run_p.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override, repeatable (e.g. --tol canal=1e-4)",
    )
    run_p.add_argument(
        "--grid",
        action="append",
        metavar="NAME=VALUE",
        help="grid-size override, repeatable (e.g. --grid mesh_t=128)",
    )

    val_p = sub.add_parser("validate", help="check a scene file without running it")
    val_p.add_argument("scene", help="path to a scene JSON file")

    sub.add_parser("catalog", help="list built-in surfaces and families")
    return parser


def _read_scene(path: str):
    try:
        text = Path(path).read_text()
    except OSError as err:
        print(f"cannot read scene file: {err}", file=sys.stderr)
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        print(
            json.dumps(
                [{"entry": "scene", "field": "", "message": f"invalid JSON: {err}"}], indent=2
            )
        )
        return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print("surfaces:")
        for name, doc in surface_catalog().items():
            print(f"  {name}: {doc}")
        print("families:")
        for name, doc in family_catalog().items():
            print(f"  {name}: {doc}")
        return 0

    if args.command == "run" and args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2

    data = _read_scene(args.scene)
    if data is None:
        return 2
    if args.command == "run":
        try:
            tol = _parse_overrides(args.tol, float, set(DEFAULT_TOLERANCES.to_json()), "tolerance")
            grid = _parse_overrides(args.grid, int, set(DEFAULT_GRIDS), "grid")
        except argparse.ArgumentTypeError as err:
            print(str(err), file=sys.stderr)
            return 2
        data = _with_overrides(_with_overrides(data, "tolerances", tol), "grids", grid)

    if args.command == "validate":
        diagnostics = validate_scene(data)
        print(json.dumps(diagnostics, indent=2, sort_keys=True))
        return 0 if not diagnostics else 2

    try:
        spec = load_scene(data)
    except SceneError as err:
        print(json.dumps(err.diagnostics, indent=2, sort_keys=True))
        return 2

    out_dir = args.out or os.environ.get("CANALGEO_OUT") or "."
    try:
        report, written, code = run_scene(spec, out_dir)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    n_entries = sum(len(v) for v in report["results"].values())
    print(
        f"{n_entries} entries, {report['error_count']} errors; "
        f"{len(written)} files written to {out_dir}"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
