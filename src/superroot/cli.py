"""Command-line driver exposing every pipeline.

Exit codes: 0 when every requested check passes, 1 on a theorem-check
failure (witnesses are printed), 2 on usage errors, 3 when a truncated
computation can only answer "inconclusive".  Certificates embed the tool
version, the type spec and all bounds so that truncation-dependent output is
reproducible.  Output ordering is lexicographic on coordinates throughout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, basegraph, oracle, pisystem as ps, replay, rootstring
from .cartan import cartan_from_json, cartan_to_json, validate
from .catalog import build
from .errors import (
    BrokenStringError,
    InconclusiveError,
    NonRegularBaseError,
    PatternViolationError,
    SuperrootError,
    UnsupportedTypeError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class Command:
    """Parsed invocation: subcommand, type spec, inputs, bounds, format."""

    subcommand: str
    type_spec: Optional[str]
    args: argparse.Namespace

    @property
    def fmt(self) -> str:
        return self.args.format


def _load_json_arg(raw: str):
    """Accept inline JSON or a path to a JSON file."""
    if raw is None:
        return None
    if os.path.exists(raw):
        with open(raw) as fh:
            return json.load(fh)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SuperrootError(f"not valid JSON and not a readable file: {raw!r} ({exc})")


def _certificate(cmd: Command, bounds: dict, body: dict) -> dict:
    return {
        "tool": "superroot",
        "version": __version__,
        "type": cmd.type_spec,
        "bounds": bounds,
        **body,
    }


def _emit(cmd: Command, payload: dict, text_lines: list[str]) -> None:
    if cmd.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _cartan_of(cmd: Command):
    if cmd.type_spec:
        return build(cmd.type_spec).cartan
    obj = _load_json_arg(cmd.args.matrix_json)
    if obj is None:
        raise SuperrootError("either --type or --matrix-json is required")
    return cartan_from_json(obj)


def _handle_of(cmd: Command):
    if not cmd.type_spec:
        raise SuperrootError("--type is required for this subcommand")
    return build(cmd.type_spec)


def _int_vector(raw, flag: str) -> tuple[int, ...]:
    """A root's coordinates: a JSON list of integers, never coerced."""
    if not isinstance(raw, list) or any(type(x) is not int for x in raw):
        raise SuperrootError(f"{flag}: a root must be a list of integers, got {raw!r}")
    return tuple(raw)


def _roots_of(cmd: Command, attr: str = "roots") -> ps.RootSet:
    flag = f"--{attr.replace('_', '-')}"
    raw = _load_json_arg(getattr(cmd.args, attr))
    if raw is None:
        raise SuperrootError(f"{flag} is required")
    if not isinstance(raw, list):
        raise SuperrootError(f"{flag}: expected a list of roots, each a list of integers, got {raw!r}")
    return ps.root_set(_handle_of(cmd), [_int_vector(r, flag) for r in raw])


def _root_list(roots) -> list[list[int]]:
    return [list(r) for r in sorted(roots)]


# -- subcommand implementations ------------------------------------------------


def _run_validate(cmd: Command) -> int:
    cd = _cartan_of(cmd)
    report = validate(cd)
    payload = _certificate(cmd, {}, {
        "cartan": cartan_to_json(cd),
        "admissible": report.admissible,
        "admissibility_violations": list(report.admissibility_violations),
        "regular": report.regular,
        "irregular_pairs": list(report.irregular_pairs),
        "symmetrizable": report.symmetrizable,
        "indecomposable": report.indecomposable,
    })
    lines = [
        f"admissible:     {report.admissible}"
        + (f"  violations {list(report.admissibility_violations)}" if not report.admissible else ""),
        f"regular:        {report.regular}"
        + (f"  pairs {list(report.irregular_pairs)}" if not report.regular else ""),
        f"symmetrizable:  {report.symmetrizable}",
        f"indecomposable: {report.indecomposable}",
    ]
    _emit(cmd, payload, lines)
    return EXIT_OK if report.ok() else EXIT_FAIL


def _reject_decomposable(cd) -> None:
    if not cd.indecomposable():
        raise SuperrootError(
            "the matrix is decomposable; split it into its connected blocks"
        )


def _run_real_roots(cmd: Command) -> int:
    cd = _cartan_of(cmd)
    _reject_decomposable(cd)
    h = cmd.args.height
    explore = cmd.args.explore if cmd.args.explore is not None else h
    result = basegraph.enumerate_real_roots(cd, h, explore)
    from .cartan import symmetrizer
    from .rootspace import bilinear

    d = symmetrizer(cd)
    entries = []
    for r in sorted(result.roots):
        iso = None if d is None else bool(bilinear(r, r, cd, d) == 0)
        entries.append({"root": list(r), "parity": cd.root_parity(r), "isotropic": iso})
    complete = "inf" if result.complete_up_to is not None else None
    payload = _certificate(cmd, {"height": h, "explore": explore}, {
        "roots": entries,
        "count": len(entries),
        "complete_up_to": complete,
        "bases_visited": result.bases_visited,
    })
    lines = [f"{len(entries)} real roots (complete_up_to={complete}, bases={result.bases_visited})"]
    for e in entries:
        tag = "isotropic" if e["isotropic"] else ("unknown-isotropy" if e["isotropic"] is None else "non-isotropic")
        lines.append(f"  {e['root']}  parity={e['parity']} {tag}")
    _emit(cmd, payload, lines)
    return EXIT_OK


def _run_principal_roots(cmd: Command) -> int:
    cd = _cartan_of(cmd)
    _reject_decomposable(cd)
    result = basegraph.principal_roots(cd, cmd.args.explore)
    roots = _root_list(result.roots)
    payload = _certificate(cmd, {"explore": cmd.args.explore}, {
        "roots": roots,
        "complete": result.complete,
        "bases_visited": result.bases_visited,
    })
    header = f"{len(roots)} principal roots" + ("" if result.complete else " (best effort)")
    _emit(cmd, payload, [header] + [str(r) for r in roots])
    return EXIT_OK


def _run_pi_check(cmd: Command) -> int:
    sigma = _roots_of(cmd)
    report = ps.is_pi_system(sigma)
    payload = _certificate(cmd, {}, {
        "ok": report.ok,
        "difference_violations": [list(map(list, v)) for v in report.difference_violations],
        "cone_violations": _root_list(report.cone_violations),
    })
    lines = [f"pi-system: {report.ok}"]
    for a, b, d in report.difference_violations:
        lines.append(f"  difference violation: {a} - {b} = {d} is a root")
    for a in report.cone_violations:
        lines.append(f"  cone violation: {a} lies in the cone of the others")
    _emit(cmd, payload, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def _run_closure(cmd: Command) -> int:
    seed = _roots_of(cmd)
    result = ps.closure_S_infinity(seed, cmd.args.height, cmd.args.max_rounds)
    payload = _certificate(cmd, {"height": cmd.args.height, "max_rounds": cmd.args.max_rounds}, {
        "status": result.status,
        "rounds": result.rounds,
        "roots": _root_list(result.roots.elements),
    })
    lines = [f"closure {result.status} after {result.rounds} rounds, {len(result.roots)} roots"]
    lines += [str(r) for r in result.roots.sorted()]
    _emit(cmd, payload, lines)
    return EXIT_OK if result.stabilized else EXIT_INCONCLUSIVE


def _run_classify_subset(cmd: Command) -> int:
    psi = _roots_of(cmd)
    cls = ps.classify_subset(psi)
    payload = _certificate(cmd, {}, {
        "symmetric": cls.symmetric,
        "closed": cls.closed,
        "subroot_system": cls.subroot_system,
    })
    _emit(cmd, payload, [
        f"symmetric:      {cls.symmetric}",
        f"closed:         {cls.closed}",
        f"subroot system: {cls.subroot_system}",
    ])
    return EXIT_OK


def _run_pi_of_psi(cmd: Command) -> int:
    psi = _roots_of(cmd)
    pi = ps.pi_of_psi(psi)
    payload = _certificate(cmd, {}, {"pi": _root_list(pi.elements)})
    _emit(cmd, payload, [f"Pi(Psi) = {_root_list(pi.elements)}"])
    return EXIT_OK


def _run_admits_pi(cmd: Command) -> int:
    psi = _roots_of(cmd)
    sigma = ps.admits_pi_system(psi, cmd.args.height, cmd.args.max_rounds)
    payload = _certificate(cmd, {"height": cmd.args.height, "max_rounds": cmd.args.max_rounds}, {
        "admits": sigma is not None,
        "pi_system": _root_list(sigma.elements) if sigma is not None else None,
    })
    if sigma is None:
        _emit(cmd, payload, ["admits pi-system: none"])
    else:
        _emit(cmd, payload, [f"admits pi-system: {_root_list(sigma.elements)}"])
    return EXIT_OK


def _run_verify_dynkin(cmd: Command) -> int:
    sigma = _roots_of(cmd, "sigma")
    cert = ps.verify_dynkin_maps(
        sigma, cmd.args.height, cmd.args.max_rounds, loop_degree=cmd.args.loop_degree
    )
    payload = _certificate(cmd, {
        "height": cmd.args.height,
        "max_rounds": cmd.args.max_rounds,
        "loop_degree": cmd.args.loop_degree,
    }, {
        "closure_closed_subroot": cert.closure_closed_subroot,
        "pi_roundtrip": cert.pi_roundtrip,
        "oracle_match": cert.oracle_match,
        "closure": _root_list(cert.closure.elements),
        "status": cert.status,
    })
    lines = [
        f"closure is closed subroot system: {cert.closure_closed_subroot}",
        f"Pi(closure) equals sigma:         {cert.pi_roundtrip}",
        f"oracle real roots match:          {cert.oracle_match}",
    ]
    _emit(cmd, payload, lines)
    return EXIT_OK if cert.ok() else EXIT_FAIL


def _run_string(cmd: Command) -> int:
    handle = _handle_of(cmd)
    alpha = _int_vector(_load_json_arg(cmd.args.alpha), "--alpha")
    beta = _int_vector(_load_json_arg(cmd.args.beta), "--beta")
    s = rootstring.root_string(handle, beta, alpha, cmd.args.window)
    entries = [{"k": e.k, "root": list(e.root), "tag": "real" if e.real else "imaginary"}
               for e in s.entries]
    payload = _certificate(cmd, {"window": cmd.args.window}, {
        "alpha": list(alpha),
        "beta": list(beta),
        "entries": entries,
        "zero_slot": s.zero_slot,
        "pairing": str(s.pairing) if s.pairing is not None else None,
    })
    lines = [f"string through {beta} in direction {alpha}:"]
    lines += [f"  k={e['k']:+d}  {e['root']}  [{e['tag']}]" for e in entries]
    _emit(cmd, payload, lines)
    return EXIT_OK


def _run_string_sweep(cmd: Command) -> int:
    handle = _handle_of(cmd)
    report = rootstring.sweep_strings(handle, cmd.args.height, cmd.args.degree)
    payload = _certificate(cmd, {"height": cmd.args.height, "degree": cmd.args.degree}, {
        "pairs": report.pairs,
        "law_counts": report.law_counts,
        "failures": [list(f) for f in report.failures],
    })
    lines = [f"{report.pairs} (beta, alpha) pairs swept"]
    lines += [f"  {law}: {count} checks" for law, count in sorted(report.law_counts.items())]
    if report.failures:
        lines.append("failures:")
        lines += [f"  {law}: {witness}" for law, witness in report.failures[:10]]
    else:
        lines.append("all string laws hold")
    _emit(cmd, payload, lines)
    return EXIT_OK if report.ok() else EXIT_FAIL


def _run_verify_main_theorem(cmd: Command) -> int:
    sigma = _roots_of(cmd, "sigma")
    verdict = oracle.verify_theorem_main(sigma, loop_degree=cmd.args.loop_degree)
    missing, extra = verdict.mismatch()
    payload = _certificate(cmd, {"loop_degree": cmd.args.loop_degree}, {
        "ok": verdict.ok,
        "window_degree": verdict.window_degree,
        "closure_status": verdict.closure_status,
        "closure_roots": _root_list(verdict.closure_roots),
        "subalgebra_roots": _root_list(verdict.subalgebra_roots),
    })
    lines = [f"closure equals oracle real roots: {verdict.ok}"
             + (f" (window degree {verdict.window_degree})" if verdict.window_degree else "")]
    if not verdict.ok:
        lines.append(f"  closure only:    {_root_list(missing)}")
        lines.append(f"  subalgebra only: {_root_list(extra)}")
    _emit(cmd, payload, lines)
    return EXIT_OK if verdict.ok else EXIT_FAIL


def _run_verify_bracket_criteria(cmd: Command) -> int:
    sigma = _roots_of(cmd, "sigma")
    handle = sigma.handle
    realization = oracle.realize(handle, loop_degree=cmd.args.loop_degree)
    gens = [realization.root_vector(r) for r in sigma]
    gens += [realization.root_vector(tuple(-x for x in r)) for r in sigma]
    basis = oracle.generated_subalgebra(gens, realization)
    report = oracle.bracket_criteria_sweep(basis, handle, realization)
    payload = _certificate(cmd, {"loop_degree": cmd.args.loop_degree}, {
        "ok": report.ok(),
        "pairs_checked": report.pairs_checked,
        "bracket_counterexamples": [list(map(str, c)) for c in report.bracket_counterexamples],
        "reflection_counterexamples": [list(map(str, c)) for c in report.reflection_counterexamples],
    })
    lines = [f"bracket criteria on g(sigma): {report.ok()} ({report.pairs_checked} pairs)"]
    for c in report.bracket_counterexamples[:10]:
        lines.append(f"  bracket law fails: {c}")
    for c in report.reflection_counterexamples[:10]:
        lines.append(f"  reflection law fails: {c}")
    _emit(cmd, payload, lines)
    return EXIT_OK if report.ok() else EXIT_FAIL


def _run_replay_examples(cmd: Command) -> int:
    certs = replay.replay_all()
    payload = {"tool": "superroot", "version": __version__, "certificates": certs}
    lines = []
    for cert in certs:
        lines.append(f"[{'PASS' if cert['passed'] else 'FAIL'}] {cert['example']} ({cert['type']})")
        for name, value in cert["checks"].items():
            lines.append(f"    {'ok ' if value else 'BAD'} {name}")
    _emit(cmd, payload, lines)
    return EXIT_OK if all(c["passed"] for c in certs) else EXIT_FAIL


# -- parser ---------------------------------------------------------------------


def _bounded_int(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


_nonneg = _bounded_int(0)
_positive = _bounded_int(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="superroot",
        description="Exact root-system combinatorics for Kac-Moody superalgebras",
    )
    parser.add_argument("--version", action="version", version=f"superroot {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_type=True, with_matrix=False):
        if with_type:
            p.add_argument("--type", help='catalog type, e.g. "B(1,1)^(1)" or "A(2,2)^(4)"')
        if with_matrix:
            p.add_argument("--matrix-json", help="inline JSON or path: {matrix, parity}")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="admissibility / regularity / symmetrizability")
    common(p, with_matrix=True)

    p = sub.add_parser("real-roots", help="enumerate real roots via the base graph")
    common(p, with_matrix=True)
    p.add_argument("--height", type=_nonneg, required=True)
    p.add_argument("--explore", type=_nonneg, default=None)

    p = sub.add_parser("principal-roots", help="even roots from odd reflections only")
    common(p, with_matrix=True)
    p.add_argument("--explore", type=_nonneg, default=64)

    for name, helptext in (
        ("pi-check", "test the two pi-system conditions"),
        ("classify-subset", "symmetric / closed / subroot system flags"),
        ("pi-of-psi", "preorder-minimal positive part of a closed subset"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.add_argument("--roots", required=True, help="JSON list of coordinate arrays, or a path")

    p = sub.add_parser("closure", help="reflection closure S_infinity")
    common(p)
    p.add_argument("--roots", required=True)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--max-rounds", type=_positive, default=64)

    p = sub.add_parser("admits-pi", help="the unique candidate pi-system, if any")
    common(p)
    p.add_argument("--roots", required=True)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--max-rounds", type=_positive, default=64)

    p = sub.add_parser("verify-dynkin", help="closure / Pi round trip / oracle match")
    common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--max-rounds", type=_positive, default=64)
    p.add_argument("--K", dest="loop_degree", type=_nonneg, default=None)

    p = sub.add_parser("string", help="one tagged root string")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--window", type=_nonneg, default=None)

    p = sub.add_parser("string-sweep", help="every string law over a grid")
    common(p)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--degree", type=_nonneg, default=None)

    p = sub.add_parser("verify", help="oracle-backed theorem checks")
    vsub = p.add_subparsers(dest="verify_what", required=True)
    for name in ("main-theorem", "bracket-criteria"):
        vp = vsub.add_parser(name)
        common(vp)
        vp.add_argument("--sigma", required=True)
        vp.add_argument("--K", dest="loop_degree", type=_nonneg, default=None)

    p = sub.add_parser("replay-examples", help="run the three worked examples end to end")
    common(p, with_type=False)
    return parser


_DISPATCH = {
    "validate": _run_validate,
    "real-roots": _run_real_roots,
    "principal-roots": _run_principal_roots,
    "pi-check": _run_pi_check,
    "closure": _run_closure,
    "classify-subset": _run_classify_subset,
    "pi-of-psi": _run_pi_of_psi,
    "admits-pi": _run_admits_pi,
    "verify-dynkin": _run_verify_dynkin,
    "string": _run_string,
    "string-sweep": _run_string_sweep,
    "replay-examples": _run_replay_examples,
}


def run(cmd: Command) -> int:
    """Dispatch one parsed command; exceptions map to exit codes in main."""
    if cmd.subcommand == "verify":
        if cmd.args.verify_what == "main-theorem":
            return _run_verify_main_theorem(cmd)
        return _run_verify_bracket_criteria(cmd)
    return _DISPATCH[cmd.subcommand](cmd)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    cmd = Command(args.subcommand, getattr(args, "type", None), args)
    try:
        return run(cmd)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (BrokenStringError, PatternViolationError, NonRegularBaseError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UnsupportedTypeError, SuperrootError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
