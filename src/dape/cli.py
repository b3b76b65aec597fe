"""Command-line surface.

Exit codes: 0 success, 1 check/assertion failure, 2 usage error,
3 I/O error. `DAPE_RUN_DIR` overrides the artifact root.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import DapeConfig
from .errors import (
    ConfigurationError,
    ContractError,
    DapeError,
    DimensionError,
    FileFormatError,
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dape", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic scene corpus")
    g.add_argument("--n", type=int, required=True, help="number of scenes (>= 4)")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument(
        "--density", default="1,1,1",
        help="sparse,mixed,dense weights, e.g. 1,0,0",
    )
    g.add_argument("--config", help="optional config JSON for featurizer geometry")
    g.add_argument("--out", help="output corpus path (default: under the run root)")

    c = sub.add_parser("check", help="run module invariant and oracle suites")
    c.add_argument("--suite", help="run a single named suite")
    c.add_argument("--json", dest="json_path", help="also write the JSON report here")

    t = sub.add_parser("train", help="train on a generated corpus")
    t.add_argument("--config", required=True)

    a = sub.add_parser("ablate", help="train every component toggle variant")
    a.add_argument("--config", required=True)

    b = sub.add_parser("bench", help="fine-alignment cost sweep over density")
    b.add_argument("--config", required=True)
    b.add_argument("--densities", default="0,25,50,75,100",
                   help="percents in [0, 100], e.g. 0,25,50,75,100")
    return p


def _load_config(path: str) -> DapeConfig:
    return DapeConfig.from_file(path)


def _floats(csv: str) -> list[float]:
    try:
        return [float(x) for x in csv.split(",") if x != ""]
    except ValueError as e:
        raise ConfigurationError(f"bad numeric list {csv!r}") from e


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigurationError, ContractError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except DapeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "gen":
        from .harness import cmd_gen

        cfg = _load_config(args.config) if args.config else None
        mix = _floats(args.density)
        if len(mix) != 3:
            raise ConfigurationError("--density needs three comma-separated weights")
        path = cmd_gen(args.n, args.seed, mix, args.out, cfg)
        print(path)
        return 0

    if args.command == "check":
        from .check import run_checks

        try:
            report = run_checks(args.suite)
        except KeyError as e:
            raise ConfigurationError(str(e)) from e
        for name, suite in report["suites"].items():
            status = "pass" if suite["passed"] else "FAIL"
            print(f"{name:<12} {status}  ({suite['ms']:.1f} ms)")
            for chk in suite["checks"]:
                if not chk["ok"]:
                    print(f"  failed: {chk['name']}  {chk.get('detail', '')}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
        print("all suites passed" if report["passed"] else "CHECK FAILED")
        return 0 if report["passed"] else 1

    if args.command == "train":
        from .harness import cmd_train

        summary = cmd_train(_load_config(args.config))
        print(json.dumps(summary, indent=2, allow_nan=False))
        return 0

    if args.command == "ablate":
        from .harness import cmd_ablate

        rows = cmd_ablate(_load_config(args.config))
        header = f"{'variant':<8} {'R@1':>6} {'R@5':>6} {'MACs':>12} {'fine MACs':>12} {'steps/s':>8}"
        print(header)
        for r in rows:
            print(
                f"{r.variant:<8} {r.r_at_1:>6.3f} {r.r_at_5:>6.3f} "
                f"{r.total_macs:>12d} {r.fine_macs:>12d} {r.steps_per_sec:>8.2f}"
            )
        return 0

    if args.command == "bench":
        from .harness import cmd_bench

        rows = cmd_bench(_load_config(args.config), _floats(args.densities))
        print(f"{'density':>8} {'cosines':>9} {'uniform':>9} {'ratio':>8}")
        for r in rows:
            print(f"{r.density:>8.2f} {r.cosines:>9d} {r.uniform:>9d} {r.ratio:>8.4f}")
        return 0

    raise ConfigurationError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
