"""Command-line interface.

Six subcommands, each reporting either a decision or a machine-checked
certificate:

* ``verify-theorem``  — run the full aggregate certificate;
* ``classify``        — place one family member's fiber in its
  isomorphism class;
* ``equiv``           — decide polynomial or hypersurface equivalence of
  two members and certify any witness found;
* ``stable-equiv``    — build and certify the cylinder automorphism pair;
* ``fiber-iso``       — certify the fiber/constant-member isomorphism;
* ``series-check``    — certify the exponential coordinate change order
  by order.

Exit status: 0 when the command completed with a passing certificate or
a clean decision (including "not equivalent" and "not decidable in this
field" — those are answers, not failures), 1 when a certificate check
failed, 2 for unusable flags or inputs.

Output is plain text by default; ``--format json`` emits one
byte-deterministic JSON document (sorted keys, no timestamps), so runs
with identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

# run_schwartz_zippel stays a module attribute of cli: the theorem-recheck
# benchmark workload replaces cli.run_schwartz_zippel to time the re-check.
from .certificate import Certificate, run_schwartz_zippel
from .equivalence import (build_poly_equiv_automorphism,
                          build_stable_equivalence,
                          decide_hypersurface_equivalence,
                          decide_poly_equivalence, theorem_certificate,
                          verify_hyper_equivalence,
                          verify_stable_equivalence)
from .errors import StablyDistinctError, NotDecidableInField
from .exactfield import rational
from .formalseries import truncation_coherence, verify_biholomorphism
from .hypersurface import (FiberIsomorphism, PqSpec, build_Pq, classify,
                           verify_fiber_isomorphism)
from .polyring import UnivariatePoly

_VALUE_FLAGS = {"--q", "--q1", "--q2", "--c", "--c1", "--c2",
                "--c-samples"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join value flags with leading-minus values: --q -1,1 -> --q=-1,1.

    argparse would otherwise read "-1,1" as an unknown option instead of
    the argument of --q.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) >= 2 and nxt[0] == "-" and (nxt[1].isdigit()
                                                    or nxt[1] == "."):
                out.append(f"{arg}={nxt}")
                i += 2
                continue
        out.append(arg)
        i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stably-distinct",
        description="Construct and machine-verify the exact identities "
                    "behind a family of hypersurfaces whose members "
                    "become equivalent only after adding a cylinder "
                    "variable.")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the numeric spot checks")
    parser.add_argument("--sz-points", type=int, default=25,
                        help="random points per numeric spot check "
                             "(0 disables)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-theorem",
                       help="run the full aggregate certificate")
    p.add_argument("--n", type=int, required=True,
                   help="number of x-variables")
    p.add_argument("--k-max", type=int, required=True,
                   help="largest power in the (t-1)^k family")
    p.add_argument("--c-samples", default=None,
                   help="comma-separated levels for the fiber checks")

    p = sub.add_parser("classify",
                       help="isomorphism class of one member's fiber")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--q", required=True,
                   help="coefficients of q, constant first, e.g. -1,1")
    p.add_argument("--c", required=True, help="level, e.g. 1 or 1/4")

    p = sub.add_parser("equiv",
                       help="decide equivalence of two members")
    p.add_argument("--kind", choices=("poly", "hypersurface"),
                   default="hypersurface")
    p.add_argument("--n", type=int, default=1,
                   help="ambient x-variables for the witness check")
    p.add_argument("--q1", required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--c2", required=True)

    p = sub.add_parser("stable-equiv",
                       help="build and certify the cylinder pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--show-maps", action="store_true",
                   help="include the full generator images in the output")

    p = sub.add_parser("fiber-iso",
                       help="certify the fiber/constant-member maps")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--q", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--show-maps", action="store_true")

    p = sub.add_parser("series-check",
                       help="certify the exponential coordinate change")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, required=True,
                   help="truncation order in total x-degree")
    p.add_argument("--stability-low", type=int, default=None,
                   help="also check coefficient stability against a "
                        "recomputation at this lower order")
    return parser


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _finish_certificate(args, cert: Certificate, payload: dict,
                        text_lines: list[str]) -> int:
    """Attach numeric spot checks, emit, and map pass/fail to exit code."""
    if args.sz_points > 0:
        run_schwartz_zippel(cert, random.Random(args.seed),
                            points=args.sz_points)
    payload["certificate"] = cert.to_dict()
    text_lines.append(cert.to_text())
    _emit(args, payload, text_lines)
    return 0 if cert.passed else 1


def _cmd_verify_theorem(args) -> int:
    samples = None
    if args.c_samples is not None:
        samples = [rational(part) for part in args.c_samples.split(",")]
    cert = theorem_certificate(args.n, args.k_max, samples)
    return _finish_certificate(
        args, cert, {"command": "verify-theorem"}, [])


def _cmd_classify(args) -> int:
    spec = PqSpec(args.n, UnivariatePoly.from_csv(args.q),
                  rational(args.c))
    iso = classify(spec)
    payload = {
        "command": "classify",
        "inputs": spec.inputs_dict(),
        "label": iso.label,
        "q_at_level_nonzero": bool(iso.qc_nonzero),
        "level_nonzero": bool(iso.c_nonzero),
    }
    _emit(args, payload, [
        f"class: {iso.label}",
        f"q(c) nonzero: {'yes' if iso.qc_nonzero else 'no'}",
        f"c nonzero: {'yes' if iso.c_nonzero else 'no'}",
    ])
    return 0


def _cmd_equiv(args) -> int:
    q1 = UnivariatePoly.from_csv(args.q1)
    q2 = UnivariatePoly.from_csv(args.q2)
    c1, c2 = rational(args.c1), rational(args.c2)
    payload = {"command": "equiv", "kind": args.kind,
               "inputs": {"q1": str(q1), "c1": str(c1),
                          "q2": str(q2), "c2": str(c2)}}

    if args.kind == "poly":
        witness = decide_poly_equivalence(q1, c1, q2, c2)
        if witness is None:
            payload["verdict"] = "not-equivalent"
            _emit(args, payload, ["verdict: not equivalent"])
            return 0
        payload["verdict"] = "equivalent"
        payload["witness"] = witness.inputs_dict()
        auto = build_poly_equiv_automorphism(witness, args.n)
        fiber1 = build_Pq(PqSpec(args.n, q1, c1)) - c1
        fiber2 = build_Pq(PqSpec(args.n, q2, c2)) - c2
        cert = Certificate(
            "the scaling witness carries the first defining polynomial "
            "exactly onto the second",
            {"n": str(args.n), **payload["inputs"],
             **witness.inputs_dict()})
        cert.record_composition("scaling-image", [auto], fiber1,
                                auto.apply(fiber1), fiber2)
        return _finish_certificate(
            args, cert, payload,
            [f"verdict: equivalent (lambda = {witness.lam})"])

    try:
        witness = decide_hypersurface_equivalence(q1, c1, q2, c2)
    except NotDecidableInField as err:
        payload["verdict"] = "not-decidable-in-field"
        payload["relation"] = err.relation
        _emit(args, payload, [
            "verdict: not decidable in the rationals or one quadratic "
            "extension",
            f"needed: {err.relation}"])
        return 0
    if witness is None:
        payload["verdict"] = "not-equivalent"
        _emit(args, payload, ["verdict: not equivalent"])
        return 0
    payload["verdict"] = "equivalent"
    payload["witness"] = witness.inputs_dict()
    cert = verify_hyper_equivalence(q1, c1, q2, c2, witness, args.n)
    header = ", ".join(f"{k} = {v}"
                       for k, v in sorted(witness.inputs_dict().items()))
    return _finish_certificate(args, cert, payload,
                               [f"verdict: equivalent ({header})"])


def _cmd_stable_equiv(args) -> int:
    q = UnivariatePoly.from_csv(args.q)
    pair = build_stable_equivalence(q, args.n)
    cert = verify_stable_equivalence(pair)
    payload = {"command": "stable-equiv",
               "inputs": {"n": str(args.n), "q": str(q)},
               "map_sizes": {
                   "phi": {name: pair.phi.image(name).term_count()
                           for name in pair.phi.sig.names},
                   "psi": {name: pair.psi.image(name).term_count()
                           for name in pair.psi.sig.names}}}
    lines = []
    if args.show_maps:
        maps = {"phi": pair.phi.to_dict(), "psi": pair.psi.to_dict()}
        payload["maps"] = maps
        for label, images in maps.items():
            lines.append(f"{label}:")
            lines.extend(f"  {name} -> {image}"
                         for name, image in sorted(images.items()))
    return _finish_certificate(args, cert, payload, lines)


def _cmd_fiber_iso(args) -> int:
    spec = PqSpec(args.n, UnivariatePoly.from_csv(args.q),
                  rational(args.c))
    cert = verify_fiber_isomorphism(spec)
    payload = {"command": "fiber-iso", "inputs": spec.inputs_dict()}
    lines = []
    if args.show_maps:
        iso = FiberIsomorphism(spec)
        payload["maps"] = {"phi": iso.phi.to_dict(),
                           "psi": iso.psi.to_dict()}
        lines.append(f"phi: y -> {iso.phi.image('y')}")
        lines.append(f"psi: y -> {iso.psi.image('y')}")
    return _finish_certificate(args, cert, payload, lines)


def _cmd_series_check(args) -> int:
    cert = verify_biholomorphism(args.n, args.order)
    if args.stability_low is not None:
        stability = truncation_coherence(args.n, args.order,
                                         args.stability_low)
        cert.absorb(stability, "stability")
    return _finish_certificate(args, cert,
                               {"command": "series-check"}, [])


_DISPATCH = {
    "verify-theorem": _cmd_verify_theorem,
    "classify": _cmd_classify,
    "equiv": _cmd_equiv,
    "stable-equiv": _cmd_stable_equiv,
    "fiber-iso": _cmd_fiber_iso,
    "series-check": _cmd_series_check,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exit_request:      # argparse handled it
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except (StablyDistinctError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
