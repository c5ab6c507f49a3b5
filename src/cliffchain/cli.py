"""Command line entry point for the verification campaigns.

Exit codes: 0 all checks passed (or nothing ran), 1 at least one check
failed, 2 bad usage, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .reporting import (
    CAMPAIGNS,
    CampaignConfig,
    DEFAULT_CAP_SPARSE,
    DEFAULT_N_LIST,
    emit,
    run_campaign,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffchain",
        description="Run verification campaigns over SO(n) chain constructions.",
    )
    parser.add_argument("campaign", choices=CAMPAIGNS)
    parser.add_argument(
        "--n",
        type=_int_list,
        default=list(DEFAULT_N_LIST),
        metavar="N1,N2,...",
        help="vector dimensions to cover (empty string for none)",
    )
    parser.add_argument(
        "--l",
        type=_int_list,
        default=[],
        metavar="L1,L2,...",
        help="chain lengths; empty picks per-campaign defaults",
    )
    parser.add_argument("--tol-kernel", type=float, default=1e-10)
    parser.add_argument("--tol-match", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output file or csv stem")
    parser.add_argument("--format", choices=("json", "csv-tables", "text"), default="text")
    parser.add_argument("--cap-sparse", type=int, default=DEFAULT_CAP_SPARSE)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv-tables" and args.out is None:
        parser.error("--format csv-tables requires --out")
    try:
        config = CampaignConfig(
            campaign=args.campaign,
            n_list=tuple(args.n),
            l_list=tuple(args.l),
            tol_kernel=args.tol_kernel,
            tol_match=args.tol_match,
            seed=args.seed,
            cap_sparse=args.cap_sparse,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = run_campaign(config)
        written = emit(report, args.format, args.out)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_PASS if report["summary"]["fail"] == 0 else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
