"""Command-line front end.

Subcommands:

    score       template-score poems (one record per quatrain)
    filter      keep quatrains scoring at least a threshold
    creativity  verse-overlap creativity of generated poems vs a corpus
    report      histogram a stream of scores
    quatrains   split poems into quatrains, optionally seeded-shuffle
    losscheck   finite-difference verification of the semantic loss head

Exit status: 0 success, 1 input/validation problem, 2 internal error, 141
(128 + SIGPIPE) when the reader of standard output goes away.
All randomness is controlled by --seed; fixed inputs and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring
from typing import Optional, Sequence

from . import __version__
from .corpus import (
    FilterStats,
    build_verse_index,
    corpus_from_text,
    filter_by_score,
    ingest,
    split_and_shuffle,
    split_into_quatrains,
    write_corpus,
)
from .creativity import PoemNovelty, creativity_score
from .rules import RuleTable, default_rule_table, load_rule_table
from .scoring import (
    HISTOGRAM_HI,
    MAX_BINS,
    EmptyInput,
    annotate_stanza,
    histogram,
    report_record,
    score_stanza,
    segment_stanza,
    split_quatrains,
)
from .syllable import LucBatError, _lines, decode_utf8

USAGE_ERROR = 1
INTERNAL_ERROR = 2
# what a shell reports for a process that SIGPIPE ended, as for `lucbat score … | head -1`
BROKEN_PIPE = 128 + 13
# Weights near the float limit overflow the score to -inf, which JSON cannot carry;
# 1e6 is far beyond any useful weight.
MAX_WEIGHT = 1e6
# losscheck flag: (argparse dest, least, most).  The check runs one batched forward pass
# per chunk of semloss._FD_CHUNK parameters over stanzas * 2 pairs of up to len steps, and
# P grows with dmodel * dhidden; at the caps (P=2880, 4 stanzas) the command takes
# 1.5-1.9 s on 2 vCPUs.  vocab only sizes the synthetic logits.
LOSSCHECK_BOUNDS = {
    "seed": ("seed", 0, None),
    "dmodel": ("dmodel", 1, 16),
    "dhidden": ("dhidden", 1, 16),
    "vocab": ("vocab", 1, 1000),
    "len": ("max_len", 1, 32),
    "stanzas": ("stanzas", 1, 4),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_weights(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected wR,wT, got {text!r}")
    w_rhyme, w_tone = (_finite(p) for p in parts)
    if not (0 < w_rhyme <= MAX_WEIGHT and 0 < w_tone <= MAX_WEIGHT):
        raise argparse.ArgumentTypeError(f"weights must be positive and at most {MAX_WEIGHT:g}")
    return w_rhyme, w_tone


def _parse_bin_width(text: str) -> float:
    width = _finite(text)
    try:
        histogram([0.0], bin_width=width)  # histogram owns the bin-count rule
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bin width must be positive and give at most {MAX_BINS} bins over [0, 100], "
            f"got {text!r}"
        ) from None
    return width


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``main`` reuses it, and parsing leaves no state in it."""
    parser = _Parser(prog="lucbat", description=__doc__.partition("\n")[0])
    parser.add_argument("--version", action="version", version=f"lucbat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="template-score poems")
    p_score.add_argument("input", help="poem file, blank-line separated ('-' for stdin)")
    p_score.add_argument("--rules", help="near-rhyme table file (default: built-in)")
    p_score.add_argument("--format", choices=("text", "jsonl"), default="text")
    p_score.add_argument("--weights", type=_parse_weights, default=(1.0, 1.0),
                         metavar="wR,wT", help="penalty weights (default 1.0,1.0)")

    p_filter = sub.add_parser("filter", help="drop quatrains below a score threshold")
    p_filter.add_argument("input", help="quatrain file")
    p_filter.add_argument("--min-score", type=_finite, required=True)
    p_filter.add_argument("--out", required=True, help="output corpus file")
    p_filter.add_argument("--stats", help="write stats JSON here (default: stdout)")
    p_filter.add_argument("--rules", help="near-rhyme table file")

    p_creat = sub.add_parser("creativity", help="verse-overlap creativity score")
    p_creat.add_argument("--generated", required=True, help="generated poem file")
    p_creat.add_argument("--corpus", required=True, help="training corpus file")
    p_creat.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_report = sub.add_parser("report", help="histogram a stream of scores")
    p_report.add_argument("input", help="scores: one float per line, or jsonl "
                                        "records with a 'score' field ('-' for stdin)")
    p_report.add_argument("--bins", type=_parse_bin_width, default=10.0,
                          help=f"bin width (at most {MAX_BINS} bins over [0, 100])")
    p_report.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_quat = sub.add_parser("quatrains", help="split poems into quatrains")
    p_quat.add_argument("input", help="poem file")
    p_quat.add_argument("--out", required=True, help="output quatrain file")
    p_quat.add_argument("--seed", type=int, help="shuffle the quatrains with this seed")

    p_loss = sub.add_parser("losscheck", help="gradient-check the loss head")
    p_loss.add_argument("--seed", type=int, default=0)
    p_loss.add_argument("--dmodel", type=int, default=4)
    p_loss.add_argument("--dhidden", type=int, default=3)
    p_loss.add_argument("--vocab", type=int, default=7)
    p_loss.add_argument("--len", type=int, default=6, dest="max_len",
                        help="max tokens per verse pair")
    p_loss.add_argument("--stanzas", type=int, default=2)
    return parser


def _load_table(path: Optional[str]) -> RuleTable:
    return load_rule_table(path) if path else default_rule_table()


def _read_text(path: str) -> str:
    if path == "-":
        return decode_utf8(sys.stdin.buffer.read(), "stdin")
    with open(path, "rb") as handle:
        return decode_utf8(handle.read(), path)


def _emit(record: dict) -> None:
    print(json.dumps(record, ensure_ascii=False, sort_keys=True, allow_nan=False))


def _cmd_score(args) -> int:
    table = _load_table(args.rules)
    w_rhyme, w_tone = args.weights
    if args.input == "-":
        corpus = corpus_from_text(_read_text("-"), source="stdin")
    else:
        corpus = ingest([args.input])

    failures = 0
    for poem in corpus.poems:
        try:
            reports = [
                score_stanza(segment_stanza(quatrain), table, w_rhyme=w_rhyme, w_tone=w_tone)
                for quatrain in split_quatrains(poem.text)
            ]
        except LucBatError as error:
            failures += 1
            if args.format == "jsonl":
                _emit({"poem_id": poem.id, "error": str(error)})
            else:
                print(f"# {poem.id}: ERROR {error}")
            continue
        for index, report in enumerate(reports, start=1):
            if args.format == "jsonl":
                print(report_record(poem.id, index, report))
            else:
                print(f"# {poem.id} stanza {index}")
                print(annotate_stanza(report))
                print()
    return USAGE_ERROR if failures else 0


def _cmd_filter(args) -> int:
    table = _load_table(args.rules)
    corpus = ingest([args.input])
    kept, stats = filter_by_score(corpus, table, args.min_score)
    write_corpus(kept, args.out)
    text = _stats_text(stats)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _stats_text(stats: FilterStats) -> str:
    """``filter``'s stats as ``json.dumps(..., sort_keys=True, indent=2)`` writes them, from text.

    ``indent`` sends ``json`` to its pure-Python encoder: on 587 dropped entries the
    payload and its dump took 1.7-1.8 ms, this 0.15-0.21 ms (2 vCPUs, Python 3.11).
    """
    mean = stats.mean_score_kept
    if mean is not None and not math.isfinite(mean):
        raise ValueError(f"Out of range float values are not JSON compliant: {mean!r}")
    entries = [
        f'    {{\n      "poem_id": {encode_basestring(poem_id)},\n'
        f'      "reason": {encode_basestring(reason)}\n    }}'
        for poem_id, reason in stats.dropped
    ]
    dropped = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return (
        f'{{\n  "dropped": {dropped},\n'
        f'  "dropped_count": {int.__repr__(stats.dropped_count)},\n'
        f'  "kept_count": {int.__repr__(stats.kept_count)},\n'
        f'  "mean_score_kept": {"null" if mean is None else float.__repr__(mean)}\n}}'
    )


def _novelty_record(novelty: PoemNovelty) -> str:
    """``_emit``'s line for one poem's novelty, written from text.

    The ratio is finite, since a poem has at least one verse, so
    ``float.__repr__`` writes it as ``json.dumps`` would.
    """
    return (
        f'{{"copied_ratio": {float.__repr__(novelty.copied_ratio)}, '
        f'"copied_verses": {int.__repr__(novelty.copied_verses)}, '
        f'"poem_id": {encode_basestring(novelty.poem_id)}, '
        f'"total_verses": {int.__repr__(novelty.total_verses)}}}'
    )


def _cmd_creativity(args) -> int:
    generated = ingest([args.generated])
    index = build_verse_index(ingest([args.corpus]))
    report = creativity_score(generated, index)
    # the per-poem lines in one write: print makes two per line, each a system call when
    # standard output is unbuffered
    if args.format == "jsonl":
        sys.stdout.write("".join(_novelty_record(novelty) + "\n" for novelty in report.per_poem))
        _emit({"creativity": report.score, "poems": len(report.per_poem)})
    else:
        sys.stdout.write("".join(
            f"{novelty.poem_id}: {novelty.copied_verses}/{novelty.total_verses} verses copied\n"
            for novelty in report.per_poem
        ))
        print(f"C = {report.score}")
    return 0


def _read_scores(text: str) -> list[float]:
    scores = []
    for number, line in enumerate(_lines(text), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # deep nesting exhausts the JSON decoder
                record = None
            if not isinstance(record, dict):
                raise LucBatError(f"line {number}: unreadable score line: {line[:60]!r}")
            if "score" not in record:  # e.g. a `score --format jsonl` error record
                continue
            value = record["score"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise LucBatError(f"line {number}: score is not a number: {line[:60]!r}")
            # a JSON integer can exceed the float range; float() would raise
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(value):
            raise LucBatError(f"line {number}: non-finite score: {line[:60]!r}")
        scores.append(value)
    return scores


def _cmd_report(args) -> int:
    scores = _read_scores(_read_text(args.input))
    if not scores:
        raise EmptyInput("no scores found in input")
    hist = histogram(scores, bin_width=args.bins)
    try:
        mean = math.fsum(scores) / len(scores)
    except OverflowError:  # finite scores can overflow their sum, but never their exact mean
        from fractions import Fraction  # imported here, so start-up does not load it

        mean = float(sum(map(Fraction, scores)) / len(scores))
    if args.format == "jsonl":
        for lo, hi, count in hist.bins:
            _emit({"bin_lo": lo, "bin_hi": hi, "count": count})
        _emit(
            {
                "below": hist.below,
                "above": hist.above,
                "n": len(scores),
                "mean": mean,
            }
        )
    else:
        peak = max(count for _, _, count in hist.bins)
        for lo, hi, count in hist.bins:
            closing = "]" if hi >= HISTOGRAM_HI else ")"
            bar = "#" * (round(40 * count / peak) if peak else 0)
            print(f"[{lo:6.1f}, {hi:6.1f}{closing} {count:6d} {bar}")
        if hist.below or hist.above:
            print(f"out of range: below={hist.below} above={hist.above}")
        print(f"n={len(scores)} mean={mean:.3f}")
    return 0


def _cmd_quatrains(args) -> int:
    corpus = ingest([args.input])
    if args.seed is not None:
        quatrains, excluded = split_and_shuffle(corpus, args.seed)
    else:
        quatrains, excluded = split_into_quatrains(corpus)
    write_corpus(quatrains, args.out)
    for poem_id, reason in excluded:
        print(f"excluded {poem_id}: {reason}", file=sys.stderr)
    print(
        f"wrote {len(quatrains.poems)} quatrains to {args.out}"
        + (f" (excluded {len(excluded)})" if excluded else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_losscheck(args) -> int:
    for flag, (name, least, most) in LOSSCHECK_BOUNDS.items():
        value = getattr(args, name)
        if value < least or (most is not None and value > most):
            bound = f">= {least}" if value < least else f"<= {most}"
            raise LucBatError(f"--{flag} must be {bound}")
    try:
        from .semloss import gradient_check  # numpy loads only for this command
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        raise LucBatError("losscheck needs numpy: pip install 'lucbat[loss]'") from exc

    report = gradient_check(
        seed=args.seed,
        d_model=args.dmodel,
        d_hidden=args.dhidden,
        vocab=args.vocab,
        max_len=args.max_len,
        n_stanzas=args.stanzas,
    )
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradient check seed={report.seed} d_model={report.d_model} "
        f"d_hidden={report.d_hidden} parameters={report.n_parameters}"
    )
    print(f"ce={report.ce:.6f} mse={report.mse:.6f} total={report.ce + report.mse:.6f}")
    print(
        f"max relative error {report.max_relative_error:.3e} "
        f"(tolerance {report.tolerance:.0e}): {verdict}"
    )
    return 0 if report.passed else USAGE_ERROR


_COMMANDS = {
    "score": _cmd_score,
    "filter": _cmd_filter,
    "creativity": _cmd_creativity,
    "report": _cmd_report,
    "quatrains": _cmd_quatrains,
    "losscheck": _cmd_losscheck,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except BrokenPipeError:
        # the final flush at exit writes the rest of the buffer to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (LucBatError, OSError) as exc:
        print(f"lucbat {args.command}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"lucbat {args.command}: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
