"""Command-line front end: construct, code, validate, and benchmark."""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
import tempfile

from .bench import SimulationRun, TheoreticalRun, rows_to_csv, run_simulation, run_theoretical
from .builder import FAMILIES, INIT_RULES, BuildConfig, BuildError, OptimalityReport, construct
from .forest import (
    CodebookError,
    DecodeError,
    decode,
    decoding_delay_bound,
    encode,
    format_codebook,
    pack_bits,
    parse_codebook,
    unpack_bits,
    validate_full,
    validate_rule1,
)
from .optimizer import ResourceLimitError
from .sources import SourceDistribution, sources_binary_grid, sources_polynomial

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

_SYMBOL_TOKEN = re.compile(r"-?[0-9]+")
_DIST_SYMBOL = re.compile(r"a(0|[1-9][0-9]*)")
_DIST_PROB = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def atomic_write(path: str, data: str | bytes) -> None:
    """Write through a temp file and a rename; the file gets the mode a
    plain ``open`` would give it under the current umask."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".aifv-")
    except OSError as e:  # name the output, not the temp file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)
        try:
            os.replace(tmp, path)
        except OSError as e:  # likewise
            raise OSError(e.errno, e.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str) -> str:
    """The file's text; a file that does not decode is named in the error."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


def read_distribution(path: str) -> SourceDistribution:
    """Lines of the form 'a<m> <probability>', one per symbol; ``<m>`` is
    ASCII decimal without sign or leading zeros, ``<probability>`` an
    unsigned ASCII decimal with an optional exponent."""
    probs: dict[int, float] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        malformed = ValueError(f"{path}:{lineno}: expected 'a<m> <probability>', got {line!r}")
        symbol = _DIST_SYMBOL.fullmatch(parts[0]) if len(parts) == 2 else None
        if symbol is None or not _DIST_PROB.fullmatch(parts[1]):
            raise malformed
        prob = float(parts[1])
        if not 0 < prob <= 1:
            raise ValueError(f"{path}:{lineno}: probability must be in (0, 1], "
                             f"got {parts[1]!r}")
        sym = int(symbol[1])
        if sym in probs:
            raise ValueError(f"{path}:{lineno}: symbol a{sym} given twice")
        probs[sym] = prob
    if sorted(probs) != list(range(len(probs))):
        raise ValueError(f"{path}: symbols must be a0..a{len(probs) - 1} exactly")
    try:
        return SourceDistribution(tuple(probs[i] for i in range(len(probs))))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def report_sidecar(report: OptimalityReport) -> str:
    g = "n/a" if report.g_checked is None else str(report.g_checked).lower()
    lines = [
        "# aifv build report",
        f"# tolerance: {report.tolerance!r}",
        f"# iterations: {report.iterations}",
        f"# converged: {str(report.converged).lower()}",
        f"# e_optimal: {str(report.e_optimal).lower()}",
        f"# f_optimal: {str(report.f_optimal).lower()}",
        f"# g_checked: {g}",
        f"# selected_block: {report.selected_block}",
        f"# expected_length: {report.expected_len!r}",
        "iter,block,lbar,max_dcost",
    ]
    for i, (lbars, dc) in enumerate(zip(report.iteration_lbars, report.max_dcost_trace), 1):
        for j, lbar in enumerate(lbars):
            lines.append(f"{i},{j},{lbar!r},{dc!r}")
    return "\n".join(lines) + "\n"


def cmd_construct(args) -> int:
    dist = read_distribution(args.dist)
    forest, report = construct(dist.probs, BuildConfig(
        n=args.n,
        family=args.family,
        max_depth=args.max_depth,
        tolerance=args.tol,
        init=args.init,
    ))
    atomic_write(args.output, format_codebook(forest))
    atomic_write(args.output + ".report.csv", report_sidecar(report))
    print(f"wrote {args.output}: {len(forest.trees)} trees, "
          f"expected {report.expected_len:.6f} bit/sym, "
          f"f_optimal={str(report.f_optimal).lower()}")
    return EXIT_OK


def read_codebook(path: str):
    """The codebook file's forest; a parse error is named with the file."""
    text = read_text(path)
    try:
        return parse_codebook(text)
    except CodebookError as e:
        raise CodebookError(f"{path}: {e}") from None


def read_symbols(path: str, m: int) -> list[int]:
    """Whitespace-separated symbols, each ``-?[0-9]+``; a bad token is
    named with the file.  Each token is first looked up among the names
    ``0..m-1``; any other token (``007``, ``-0``, ``m`` itself) is read
    by the grammar, and ``encode`` rejects a value outside the alphabet."""
    tokens = read_text(path).split()
    names = {str(s): s for s in range(m)}
    try:
        return list(map(names.__getitem__, tokens))
    except KeyError:
        pass
    for tok in tokens:
        if not _SYMBOL_TOKEN.fullmatch(tok):
            raise ValueError(f"{path}: symbol token {tok!r} is not an integer")
    return [int(tok) for tok in tokens]


def cmd_encode(args) -> int:
    forest = read_codebook(args.codebook)
    issues = validate_rule1(forest)
    if issues:
        raise CodebookError(f"{args.codebook} is not decodable: {issues[0]}")
    symbols = read_symbols(args.input, forest.symbol_count)
    bits = encode(forest, symbols)
    atomic_write(args.output, pack_bits(bits))
    print(f"encoded {len(symbols)} symbols into {len(bits)} bits "
          f"({(len(bits) + 7) // 8} bytes)")
    return EXIT_OK


def cmd_decode(args) -> int:
    forest = read_codebook(args.codebook)
    with open(args.input, "rb") as fh:
        bits = unpack_bits(fh.read())
    symbols = decode(forest, bits, args.count)
    names = [str(s) for s in range(forest.symbol_count)]
    atomic_write(args.output, " ".join([names[s] for s in symbols]) + "\n")
    print(f"decoded {len(symbols)} symbols")
    return EXIT_OK


def cmd_check(args) -> int:
    forest = read_codebook(args.codebook)
    issues = validate_rule1(forest)
    full = validate_full(forest)
    print(f"codebook: {len(forest.trees)} trees, {forest.symbol_count} symbols, "
          f"delay bound {forest.n}")
    for k, tree in enumerate(forest.trees):
        print(f"  tree {k}: mode {tree.mode.render()}")
    for msg in issues:
        print(f"FAIL {msg}")
    if not full.root_mode_ok:
        print("FAIL initial tree's mode is not the empty string")
    for k, ok in enumerate(full.per_tree):
        if not ok:
            print(f"note: tree {k} is not full (unused codeword space)")
    if not issues:
        print(f"decodability: PASS; decoding delay <= {decoding_delay_bound(forest)} bits")
        return EXIT_OK
    return EXIT_VALIDATION


def _sources_from_args(args) -> list[tuple[str, SourceDistribution]]:
    out: list[tuple[str, SourceDistribution]] = []
    if args.grid:
        out += [(f"p0={d.probs[0]:.2f}", d) for d in sources_binary_grid()]
    if args.poly:
        for name, d in zip(("P0", "P1", "P2"), sources_polynomial(args.poly)):
            out.append((f"{name}(M={args.poly})", d))
    for path in args.dist or ():
        out.append((os.path.basename(path), read_distribution(path)))
    return out


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty string means none."""
    try:
        return tuple(int(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"{option} takes comma-separated integers, got {text!r}") from None


def cmd_eval(args) -> int:
    rows = run_theoretical(TheoreticalRun(
        sources=tuple(_sources_from_args(args)),
        aifv_delays=_int_list("--aifv", args.aifv),
        aifvm_orders=_int_list("--aifvm", args.aifvm),
        ext_huffman_orders=_int_list("--ext-huffman", args.ext_huffman),
        include_huffman=not args.no_huffman,
        tolerance=args.tol,
        max_depth=args.max_depth,
    ))
    atomic_write(args.output, rows_to_csv(rows))
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rows = run_simulation(SimulationRun(
        sources=tuple(_sources_from_args(args)),
        seq_sizes=_int_list("--sizes", args.sizes),
        trials=args.trials,
        seed=args.seed,
        aifv_delays=_int_list("--aifv", args.aifv),
        aifvm_orders=_int_list("--aifvm", args.aifvm),
        include_huffman=not args.no_huffman,
        include_range=not args.no_range,
        tolerance=args.tol,
        max_depth=args.max_depth,
    ))
    atomic_write(args.output, rows_to_csv(rows))
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="aifv", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an optimal codebook for a source")
    p.add_argument("--dist", required=True, help="distribution file (a<m> <prob> lines)")
    p.add_argument("-N", dest="n", type=int, required=True, help="decoding delay bound")
    p.add_argument("--family", choices=FAMILIES, default="continuous",
                   help="mode family: the continuous subfamily, the classic m-tree "
                        "links (m = N), or the full basic family (binary, N <= 3)")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--init", choices=INIT_RULES, default="formula")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="encode a symbol file with a codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True, help="whitespace-separated symbol indices")
    p.add_argument("-o", "--output", required=True, help="packed bitstream file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream file")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("-L", dest="count", type=int, required=True,
                   help="number of symbols to decode")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check", help="validate a codebook and report its delay")
    p.add_argument("--codebook", required=True)
    p.set_defaults(func=cmd_check)

    for name, fn in (("eval", cmd_eval), ("simulate", cmd_simulate)):
        p = sub.add_parser(name, help=f"{name} coders over sources; writes CSV")
        p.add_argument("--grid", action="store_true", help="the 49-source binary sweep")
        p.add_argument("--poly", type=int, default=0, metavar="M",
                       help="uniform/linear/quadratic sources over M symbols")
        p.add_argument("--dist", action="append", help="distribution file (repeatable)")
        p.add_argument("--aifv", default="", help="comma-separated delay bounds")
        p.add_argument("--aifvm", default="", help="comma-separated m-tree orders")
        p.add_argument("--no-huffman", action="store_true")
        p.add_argument("--tol", type=float, default=1e-14)
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("-o", "--output", required=True)
        if name == "eval":
            p.add_argument("--ext-huffman", default="",
                           help="comma-separated block orders")
        else:
            p.add_argument("--sizes", default="512,1024,2048")
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--no-range", action="store_true")
        p.set_defaults(func=fn)
    return top


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("AIFV_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CodebookError, DecodeError, BuildError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
