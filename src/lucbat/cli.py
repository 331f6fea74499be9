"""Command-line front end.

Subcommands:

    score       template-score poems (one record per quatrain)
    filter      keep poems scoring at least a threshold, each poem one stanza
    creativity  verse-overlap creativity of generated poems vs a corpus
    report      histogram a stream of scores into the ten deciles of [0, 100]
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
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .rules import RuleTable, default_rule_table, load_rule_table
from .syllable import (BadCheckSetting, BadScore, EmptyInput, LucBatError, MissingDependency,
                       _lines, read_text)

if TYPE_CHECKING:
    from .creativity import PoemNovelty

USAGE_ERROR = 1
INTERNAL_ERROR = 2
# what a shell reports for a process that SIGPIPE ended, as for `lucbat score … | head -1`
BROKEN_PIPE = 128 + 13
# losscheck flag: (gradient_check setting and argparse dest, least, most).  The check runs
# one batched forward pass per chunk of semloss._FD_CHUNK parameters over stanzas * 2 pairs
# of up to len steps, and P grows with dmodel * dhidden; at the caps (P=2880, 4 stanzas) the
# command takes 1.5-1.9 s on 2 vCPUs.  vocab only sizes the synthetic logits.
LOSSCHECK_BOUNDS = {
    "seed": ("seed", 0, None),
    "dmodel": ("d_model", 1, 16),
    "dhidden": ("d_hidden", 1, 16),
    "vocab": ("vocab", 1, 1000),
    "len": ("max_len", 1, 32),
    "stanzas": ("n_stanzas", 1, 4),
}
# the argparse dests of every input a command reads with syllable.read_text
INPUT_DESTS = ("input", "rules", "generated", "corpus")
# the argparse dests of every file a command writes; '-' names stdin, never an output
OUTPUT_DESTS = ("out", "stats")


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``main`` reuses it, and parsing leaves no state in it."""
    parser = _Parser(prog="lucbat", description=__doc__.partition("\n")[0])
    parser.add_argument("--version", action="version", version=f"lucbat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="template-score poems")
    p_score.add_argument("input", help="poem file, blank-line separated ('-' for stdin)")
    p_score.add_argument("--rules", help="near-rhyme table file ('-' for stdin; "
                                         "default: built-in)")
    p_score.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_filter = sub.add_parser("filter", help="drop poems below a score threshold, "
                                             "each scored as one stanza of n pairs")
    p_filter.add_argument("input", help="poem file, blank-line separated; "
                                        "each poem is one stanza ('-' for stdin)")
    p_filter.add_argument("--min-score", type=_finite, required=True)
    p_filter.add_argument("--out", required=True, help="output corpus file")
    p_filter.add_argument("--stats", help="write stats JSON here (default: stdout)")
    p_filter.add_argument("--rules", help="near-rhyme table file ('-' for stdin)")

    p_creat = sub.add_parser("creativity", help="verse-overlap creativity score")
    p_creat.add_argument("--generated", required=True, help="generated poem file ('-' for stdin)")
    p_creat.add_argument("--corpus", required=True, help="training corpus file ('-' for stdin)")
    p_creat.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_report = sub.add_parser("report", help="histogram scores into the deciles of [0, 100]")
    p_report.add_argument("input", help="scores: one float per line, or jsonl "
                                        "records with a 'score' field ('-' for stdin)")
    p_report.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_quat = sub.add_parser("quatrains", help="split poems into quatrains")
    p_quat.add_argument("input", help="poem file ('-' for stdin)")
    p_quat.add_argument("--out", required=True, help="output quatrain file")
    p_quat.add_argument("--seed", type=int, help="shuffle the quatrains with this seed")

    p_loss = sub.add_parser("losscheck", help="gradient-check the loss head")
    p_loss.add_argument("--seed", type=int, default=0)
    p_loss.add_argument("--dmodel", type=int, default=4, dest="d_model", metavar="DMODEL")
    p_loss.add_argument("--dhidden", type=int, default=3, dest="d_hidden", metavar="DHIDDEN")
    p_loss.add_argument("--vocab", type=int, default=7)
    p_loss.add_argument("--len", type=int, default=6, dest="max_len",
                        help="max tokens per verse pair")
    p_loss.add_argument("--stanzas", type=int, default=2, dest="n_stanzas", metavar="STANZAS")
    return parser


def _load_table(path: Optional[str]) -> RuleTable:
    return load_rule_table(path) if path else default_rule_table()


def _emit(record: dict) -> None:
    print(json.dumps(record, ensure_ascii=False, sort_keys=True, allow_nan=False))


def _cmd_score(args) -> int:
    from .corpus import ingest
    from .scoring import annotate_stanza, report_record, score_blocks

    table = _load_table(args.rules)
    corpus = ingest(args.input)

    failures = 0
    for poem, outcome in score_blocks(corpus.poems, table, "quatrain"):
        if isinstance(outcome, LucBatError):
            failures += 1
            if args.format == "jsonl":
                _emit({"poem_id": poem.id, "error": str(outcome)})
            else:
                print(f"# {poem.id}: ERROR {outcome}")
            continue
        for index, report in enumerate(outcome, start=1):
            if args.format == "jsonl":
                print(report_record(poem.id, index, report))
            else:
                print(f"# {poem.id} stanza {index}")
                print(annotate_stanza(report))
                print()
    return USAGE_ERROR if failures else 0


def _cmd_filter(args) -> int:
    from .corpus import filter_by_score, ingest, write_corpus

    table = _load_table(args.rules)
    corpus = ingest(args.input)
    kept, stats = filter_by_score(corpus, table, args.min_score)
    write_corpus(kept, args.out)
    dropped = [{"poem_id": pid, "reason": reason} for pid, reason in stats.dropped]
    text = json.dumps({**stats._asdict(), "dropped_count": len(dropped), "dropped": dropped},
                      ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


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
    from .corpus import build_verse_index, ingest
    from .creativity import creativity_score

    generated = ingest(args.generated)
    index = build_verse_index(ingest(args.corpus))
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
            if not line.isascii() or "_" in line:  # float() also takes "1_0", "٥٠" and "１２"
                raise ValueError(line)
            value = float(line)
        except ValueError:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # deep nesting exhausts the JSON decoder
                record = None
            if not isinstance(record, dict):
                raise BadScore(f"line {number}: unreadable score line: {line[:60]!r}")
            if "score" not in record:  # e.g. a `score --format jsonl` error record
                continue
            value = record["score"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BadScore(f"line {number}: score is not a number: {line[:60]!r}")
            # a JSON integer can exceed the float range; float() would raise
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(value):
            raise BadScore(f"line {number}: non-finite score: {line[:60]!r}")
        scores.append(value)
    return scores


def _cmd_report(args) -> int:
    from .scoring import HISTOGRAM_HI, histogram

    scores = _read_scores(read_text(args.input))
    if not scores:
        raise EmptyInput("no scores found in input")
    hist = histogram(scores)
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
    from .corpus import ingest, split_and_shuffle, split_into_quatrains, write_corpus

    corpus = ingest(args.input)
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
    settings = {name: getattr(args, name) for name, _, _ in LOSSCHECK_BOUNDS.values()}
    for flag, (name, least, most) in LOSSCHECK_BOUNDS.items():
        value = settings[name]
        if value < least or (most is not None and value > most):
            bound = f">= {least}" if value < least else f"<= {most}"
            raise BadCheckSetting(f"--{flag} must be {bound}")
    try:
        from .semloss import gradient_check  # numpy loads only for this command
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependency("losscheck needs numpy: pip install 'lucbat[loss]'") from exc

    report = gradient_check(**settings)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradient check seed={args.seed} d_model={args.d_model} "
        f"d_hidden={args.d_hidden} parameters={report.n_parameters}"
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
    # every byte lucbat writes is UTF-8, whatever the locale; a stream with no reconfigure
    # (a StringIO a caller redirected to) is left as it is
    for stream, errors in ((sys.stdout, "strict"), (sys.stderr, "backslashreplace")):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=errors)
    try:
        args = build_parser().parse_args(argv)
        if sum(getattr(args, dest, None) == "-" for dest in INPUT_DESTS) > 1:
            build_parser().error("'-' may name one input only: a run reads stdin once")
        for dest in OUTPUT_DESTS:
            if getattr(args, dest, None) == "-":
                build_parser().error(f"--{dest} needs a file name: '-' names stdin")
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
