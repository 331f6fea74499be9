"""Dataset pipeline: ingest, split to quatrains, shuffle, filter, histogram.

Run:  python demos/03_corpus_pipeline.py
"""

from lucbat import (
    corpus_from_text,
    default_rule_table,
    filter_by_score,
    histogram,
    score_stanza,
    segment_stanza,
    split_and_shuffle,
)

RAW = """\
Trăm năm trong cõi người ta
Chữ tài chữ mệnh khéo là ghét nhau
Trải qua một cuộc bể dâu
Những điều trông thấy mà đau đớn lòng
Lạ gì bỉ sắc tư phong
Trời xanh quen thói má hồng đánh ghen
Cảo thơm lần giở trước đèn
Phong tình cổ lục còn truyền sử xanh

Lạ gì bỉ sắc tư phong
Trời xanh quen thói má hồng đánh ghen

Trăm năm trong cõi người ta
Chữ tài chữ mệnh khéo xanh ghét nhau
Trải qua một cuộc bể dâu
Những điều trông thây mà đau đớn lòng
"""

table = default_rule_table()
corpus = corpus_from_text(RAW, source="demo")
print(f"ingested {len(corpus)} poems")

quatrains, excluded = split_and_shuffle(corpus, seed=7)
print(f"split into {len(quatrains)} quatrains, seeded shuffle")
for poem_id, reason in excluded:
    print(f"  excluded {poem_id}: {reason}")

scores = []
for poem in quatrains.poems:
    report = score_stanza(segment_stanza(poem.text), table)
    scores.append(report.score)
    print(f"  {poem.id}: R={report.wrong_rhyme} T={report.wrong_tone} "
          f"score={report.score:.2f}")

kept, stats = filter_by_score(quatrains, table, min_score=95.0)
print(f"\nfilter >= 95: kept {stats.kept_count}, dropped {len(stats.dropped)}, "
      f"mean kept score {stats.mean_score_kept}")

print("\nscore histogram (width 10):")
for lo, hi, count in histogram(scores).bins:
    if count:
        print(f"  [{lo:5.1f}, {hi:5.1f}{']' if hi >= 100 else ')'} {count}")
