"""Command-line driver exposing every pipeline.

Exit codes: 0 when every requested check passes, 1 on a theorem-check
failure (witnesses are printed), 2 on usage errors, 3 when a truncated
computation can only answer "inconclusive".  Certificates embed the tool
version, the type spec and all bounds so that truncation-dependent output is
reproducible.  Output ordering is lexicographic on coordinates throughout.

A subcommand is added by one entry of ``_COMMANDS``: its help, its flags and
a runner ``args -> (body, text_lines, exit_code)``; the parser, certificate
header, output and exit-code mapping are shared.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__, basegraph, oracle, pisystem as ps, replay, rootstring
from .cartan import cartan_from_json, cartan_to_json, symmetrizer, validate
from .catalog import build
from .errors import InconclusiveError, NonRegularBaseError, SuperrootError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load_json_arg(raw: str):
    """Accept inline JSON or a path to a JSON file."""
    if os.path.exists(raw):
        try:
            with open(raw) as fh:
                return json.load(fh)
        except OSError as exc:
            raise SuperrootError(f"cannot read {raw!r}: {exc}")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SuperrootError(f"not valid JSON and not a readable file: {raw!r} ({exc})")


def _cartan_of(args):
    if args.type and args.matrix_json is not None:
        raise SuperrootError("give either --type or --matrix-json, not both")
    if args.type:
        return build(args.type).cartan
    if args.matrix_json is None:
        raise SuperrootError("either --type or --matrix-json is required")
    return cartan_from_json(_load_json_arg(args.matrix_json))


def _indecomposable_cartan(args):
    cd = _cartan_of(args)
    if not cd.indecomposable():
        raise SuperrootError("the matrix is decomposable; split it into its connected blocks")
    return cd


def _handle_of(args):
    if not args.type:
        raise SuperrootError("--type is required for this subcommand")
    return build(args.type)


def _int_vector(raw, flag: str) -> tuple[int, ...]:
    """A root's coordinates: a JSON list of integers, never coerced."""
    if not isinstance(raw, list) or any(type(x) is not int for x in raw):
        raise SuperrootError(f"{flag}: a root must be a list of integers, got {raw!r}")
    return tuple(raw)


def _roots_of(args, attr: str = "roots") -> ps.RootSet:
    flag = f"--{attr}"
    raw = _load_json_arg(getattr(args, attr))
    if not isinstance(raw, list):
        raise SuperrootError(f"{flag}: expected a list of roots, each a list of integers, got {raw!r}")
    handle, roots = _handle_of(args), set()
    for r in raw:
        r = _int_vector(r, flag)
        if r in roots:
            raise SuperrootError(f"{flag}: the root {list(r)} is given more than once")
        roots.add(r)
    if not roots:
        raise SuperrootError(f"{flag}: the set is empty; give at least one root")
    return ps.root_set(handle, roots)


def _root_list(roots) -> list[list[int]]:
    return [list(r) for r in sorted(roots)]


# -- subcommands: args -> (body, text_lines, exit_code) --------------------------


def _validate(args):
    cd = _cartan_of(args)
    report = validate(cd)
    body = {
        "cartan": cartan_to_json(cd),
        "admissible": report.admissible,
        "admissibility_violations": list(report.admissibility_violations),
        "regular": report.regular,
        "irregular_pairs": list(report.irregular_pairs),
        "symmetrizable": symmetrizer(cd) is not None,
        "indecomposable": cd.indecomposable(),
    }
    lines = [
        f"admissible:     {report.admissible}"
        + (f"  violations {list(report.admissibility_violations)}" if not report.admissible else ""),
        f"regular:        {report.regular}"
        + (f"  pairs {list(report.irregular_pairs)}" if not report.regular else ""),
        f"symmetrizable:  {body['symmetrizable']}",
        f"indecomposable: {body['indecomposable']}",
    ]
    return body, lines, EXIT_OK if report.ok() else EXIT_FAIL


def _real_roots(args):
    cd = _indecomposable_cartan(args)
    if args.explore is None:  # set on args, so the certificate's bounds echo it
        args.explore = args.height
    result = basegraph.enumerate_real_roots(cd, args.height, args.explore)
    known = symmetrizer(cd) is not None  # without a symmetrizer, isotropy is printed as unknown
    entries = [{"root": list(r), "parity": cd.root_parity(r),
                "isotropic": r in result.isotropic if known else None}
               for r in sorted(result.roots)]
    complete = "inf" if result.complete else None
    body = {"roots": entries, "count": len(entries), "complete_up_to": complete,
            "bases_visited": result.bases_visited}
    lines = [f"{len(entries)} real roots (complete_up_to={complete}, bases={result.bases_visited})"]
    for e in entries:
        tag = "isotropic" if e["isotropic"] else ("unknown-isotropy" if e["isotropic"] is None else "non-isotropic")
        lines.append(f"  {e['root']}  parity={e['parity']} {tag}")
    return body, lines, EXIT_OK


def _principal_roots(args):
    result = basegraph.principal_roots(_indecomposable_cartan(args), args.explore)
    roots = _root_list(result.roots)
    body = {"roots": roots, "complete": result.complete, "bases_visited": result.bases_visited}
    header = f"{len(roots)} principal roots" + ("" if result.complete else " (best effort)")
    return body, [header] + [str(r) for r in roots], EXIT_OK


def _pi_check(args):
    report = ps.is_pi_system(_roots_of(args))
    body = {"ok": report.ok, "cone_violations": _root_list(report.cone_violations),
            "difference_violations": [list(map(list, v)) for v in report.difference_violations]}
    lines = [f"pi-system: {report.ok}"]
    lines += [f"  difference violation: {a} - {b} = {d} is a root" for a, b, d in report.difference_violations]
    lines += [f"  cone violation: {a} lies in the cone of the others" for a in report.cone_violations]
    return body, lines, EXIT_OK if report.ok else EXIT_FAIL


def _closure(args):
    result = ps.closure_S_infinity(_roots_of(args), args.height)
    body = {"status": result.status, "rounds": result.rounds, "roots": _root_list(result.roots.elements)}
    lines = [f"closure {result.status} after {result.rounds} rounds, {len(result.roots)} roots"]
    lines += [str(r) for r in result.roots.sorted()]
    return body, lines, EXIT_OK if result.stabilized else EXIT_INCONCLUSIVE


def _classify_subset(args):
    cls = ps.classify_subset(_roots_of(args))
    body = {"symmetric": cls.symmetric, "closed": cls.closed, "subroot_system": cls.subroot_system}
    lines = [
        f"symmetric:      {cls.symmetric}",
        f"closed:         {cls.closed}",
        f"subroot system: {cls.subroot_system}",
    ]
    return body, lines, EXIT_OK


def _pi_of_psi(args):
    pi = _root_list(ps.pi_of_psi(_roots_of(args)).elements)
    return {"pi": pi}, [f"Pi(Psi) = {pi}"], EXIT_OK


def _admits_pi(args):
    sigma = ps.admits_pi_system(_roots_of(args), args.height)
    pi = _root_list(sigma.elements) if sigma is not None else None
    body = {"admits": sigma is not None, "pi_system": pi}
    return body, [f"admits pi-system: {'none' if pi is None else pi}"], EXIT_OK


def _verify_dynkin(args):
    cert = oracle.verify_dynkin_maps(_roots_of(args, "sigma"), args.height, args.loop_degree)
    body = {"closure_closed_subroot": cert.closure_closed_subroot, "pi_roundtrip": cert.pi_roundtrip,
            "oracle_match": cert.oracle_match, "closure": _root_list(cert.closure.elements),
            "status": ps.STABILIZED}
    lines = [
        f"closure is closed subroot system: {cert.closure_closed_subroot}",
        f"Pi(closure) equals sigma:         {cert.pi_roundtrip}",
        f"oracle real roots match:          {cert.oracle_match}",
    ]
    return body, lines, EXIT_OK if cert.ok() else EXIT_FAIL


def _string(args):
    handle = _handle_of(args)
    alpha = _int_vector(_load_json_arg(args.alpha), "--alpha")
    beta = _int_vector(_load_json_arg(args.beta), "--beta")
    s = rootstring.root_string(handle, beta, alpha)
    entries = [{"k": e.k, "root": list(e.root), "tag": "real" if e.real else "imaginary"}
               for e in s.entries]
    body = {"alpha": list(alpha), "beta": list(beta), "entries": entries, "zero_slot": s.zero_slot,
            "pairing": str(s.pairing) if s.pairing is not None else None}
    lines = [f"string through {beta} in direction {alpha}:"]
    lines += [f"  k={e['k']:+d}  {e['root']}  [{e['tag']}]" for e in entries]
    return body, lines, EXIT_OK


def _first_ten(lines: list[str]) -> list[str]:
    """The text output's first ten witness lines, and a count of the rest."""
    rest = [f"  ... and {len(lines) - 10} more (--format json lists all)"] if len(lines) > 10 else []
    return lines[:10] + rest


def _string_sweep(args):
    report = rootstring.sweep_strings(_handle_of(args), args.height, args.degree)
    body = {"pairs": report.pairs, "law_counts": report.law_counts,
            "failures": [list(f) for f in report.failures]}
    lines = [f"{report.pairs} (beta, alpha) pairs swept"]
    lines += [f"  {law}: {count} checks" for law, count in sorted(report.law_counts.items())]
    if report.failures:
        lines.append("failures:")
        lines += _first_ten([f"  {law}: {witness}" for law, witness in report.failures])
    else:  # an affine sweep holds only in its window
        lines.append("all string laws hold" + ("" if args.degree is None else
                                               f" in the null-degree window |d| <= {args.degree}"))
    return body, lines, EXIT_OK if report.ok() else EXIT_FAIL


def _verify_main_theorem(args):
    verdict = oracle.verify_theorem_main(_roots_of(args, "sigma"), loop_degree=args.loop_degree)
    missing, extra = verdict.mismatch()
    body = {"ok": verdict.ok, "window_degree": verdict.window_degree,
            "closure_status": verdict.closure_status, "closure_roots": _root_list(verdict.closure_roots),
            "subalgebra_roots": _root_list(verdict.subalgebra_roots)}
    lines = [f"closure equals oracle real roots: {verdict.ok}"
             + (f" (window degree {verdict.window_degree})" if verdict.window_degree else "")]
    if not verdict.ok:
        lines.append(f"  closure only:    {_root_list(missing)}")
        lines.append(f"  subalgebra only: {_root_list(extra)}")
    return body, lines, EXIT_OK if verdict.ok else EXIT_FAIL


def _verify_bracket_criteria(args):
    sigma = _roots_of(args, "sigma")
    realization = oracle.realize_sigma(sigma, args.loop_degree)
    report = oracle.bracket_criteria_sweep(realization.subalgebra(sigma), sigma.handle, realization)
    body = {
        "ok": report.ok(),
        "pairs_checked": report.pairs_checked,
        "bracket_counterexamples": [list(map(str, c)) for c in report.bracket_counterexamples],
        "reflection_counterexamples": [list(map(str, c)) for c in report.reflection_counterexamples],
    }
    lines = [f"bracket criteria on g(sigma): {report.ok()} ({report.pairs_checked} pairs)"]
    lines += _first_ten([f"  bracket law fails: {c}" for c in report.bracket_counterexamples])
    lines += _first_ten([f"  reflection law fails: {c}" for c in report.reflection_counterexamples])
    return body, lines, EXIT_OK if report.ok() else EXIT_FAIL


def _replay_examples(args):
    certs = replay.replay_all()
    lines = []
    for cert in certs:
        lines.append(f"[{'PASS' if cert['passed'] else 'FAIL'}] {cert['example']} ({cert['type']})")
        for name, value in cert["checks"].items():
            lines.append(f"    {'ok ' if value else 'BAD'} {name}")
    return {"certificates": certs}, lines, EXIT_OK if all(c["passed"] for c in certs) else EXIT_FAIL


# -- the command table -----------------------------------------------------------


def _nonneg(raw: str) -> int:
    """An argparse type for every bound: a nonnegative integer in the ASCII digits 0-9."""
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _flag(*names, **kwargs):
    return names, kwargs


_FORMAT = _flag("--format", choices=("text", "json"), default="text")
_TYPE = _flag("--type", help='catalog type, e.g. "B(1,1)^(1)" or "A(2,2)^(4)"')
_TYPED = (_TYPE, _FORMAT)
_MATRIX = (_TYPE, _flag("--matrix-json", help="inline JSON or path: {matrix, parity}"), _FORMAT)
_LIST = ("JSON list of coordinate arrays, or a path; not empty: every command reads a pi-system "
         "or a subset Psi, and an empty one leaves nothing to compute")
_ROOTS = _flag("--roots", required=True, help=_LIST)
_SIGMA = _flag("--sigma", required=True, help=_LIST)
_HEIGHT = _flag("--height", type=_nonneg, default=None)
_K = _flag("--K", dest="loop_degree", type=_nonneg, default=None)
_CLOSURE = (*_TYPED, _ROOTS, _HEIGHT)

# name -> (help, flags, runner), in the order ``--help`` lists them.  A
# two-word name is a leaf of a subcommand group; its help stays unset.
_COMMANDS = {
    "validate": ("admissibility / regularity / symmetrizability", _MATRIX, _validate),
    "real-roots": ("enumerate real roots via the base graph",
                   (*_MATRIX, _flag("--height", type=_nonneg, required=True),
                    _flag("--explore", type=_nonneg, default=None)), _real_roots),
    "principal-roots": ("even roots from odd reflections only",
                        (*_MATRIX, _flag("--explore", type=_nonneg, default=64)), _principal_roots),
    "pi-check": ("test the two pi-system conditions", (*_TYPED, _ROOTS), _pi_check),
    "classify-subset": ("symmetric / closed / subroot system flags", (*_TYPED, _ROOTS), _classify_subset),
    "pi-of-psi": ("preorder-minimal positive part of a closed subset", (*_TYPED, _ROOTS), _pi_of_psi),
    "closure": ("reflection closure S_infinity", _CLOSURE, _closure),
    "admits-pi": ("the unique candidate pi-system, if any", _CLOSURE, _admits_pi),
    "verify-dynkin": ("closure / Pi round trip / oracle match",
                      (*_TYPED, _SIGMA, _HEIGHT, _K), _verify_dynkin),
    "string": ("one tagged root string",
               (*_TYPED, _flag("--alpha", required=True), _flag("--beta", required=True)), _string),
    "string-sweep": ("every string law over a grid",
                     (*_TYPED, _HEIGHT, _flag("--degree", type=_nonneg, default=None)), _string_sweep),
    "verify main-theorem": (None, (*_TYPED, _SIGMA, _K), _verify_main_theorem),
    "verify bracket-criteria": (None, (*_TYPED, _SIGMA, _K), _verify_bracket_criteria),
    "replay-examples": ("run the three worked examples end to end", (_FORMAT,), _replay_examples),
}
_GROUPS = {"verify": "oracle-backed theorem checks"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="superroot",
        description="Exact root-system combinatorics for Kac-Moody superalgebras",
    )
    parser.add_argument("--version", action="version", version=f"superroot {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    groups = {}
    for name, (helptext, flags, runner) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if not group:
            p = sub.add_parser(leaf, help=helptext)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                    dest=f"{group}_what", required=True)
            p = groups[group].add_parser(leaf)
        actions = [p.add_argument(*names, **kwargs) for names, kwargs in flags]
        p.set_defaults(runner=runner,
                       bounds=[a.dest for a in actions if a.type is _nonneg])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        body, lines, code = args.runner(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NonRegularBaseError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (SuperrootError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        cert = {"tool": "superroot", "version": __version__}
        if hasattr(args, "type"):  # every subcommand but replay-examples
            cert |= {"type": args.type, "bounds": {b: getattr(args, b) for b in args.bounds}}
        lines = [json.dumps({**cert, **body}, indent=2, sort_keys=True, default=str)]
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: stop quietly, with the run's own code
        with open(os.devnull, "w") as devnull:  # takes the flush at exit, which would raise again
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
