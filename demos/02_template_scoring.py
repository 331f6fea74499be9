"""Template scoring: rhyme chains, tone positions, and the 0-100 score.

Run:  python demos/02_template_scoring.py
"""

from lucbat import (
    annotate_stanza,
    build_rhyme_chains,
    default_rule_table,
    score_stanza,
    segment_stanza,
)

KIEU = """\
Trăm năm trong cõi người ta
Chữ tài chữ mệnh khéo là ghét nhau
Trải qua một cuộc bể dâu
Những điều trông thấy mà đau đớn lòng"""

table = default_rule_table()

print("Rhyme chains of a quatrain (anchor first):")
for chain in build_rhyme_chains(2):
    print(f"  {chain.positions}")
print()

stanza = segment_stanza(KIEU)
report = score_stanza(stanza, table)
print("The opening of Truyen Kieu is flawless:")
print(annotate_stanza(report))
print()

# break the rhyme at line 2 word 6, flip the tone at line 4 word 4
broken = KIEU.replace("khéo là ghét", "khéo xanh ghét").replace("thấy", "thây")
stanza = segment_stanza(broken)
report = score_stanza(stanza, table)
print("One broken rhyme and one wrong tone:")
print(annotate_stanza(report))
print()
print(f"score = 100 * (1 - {report.wrong_rhyme}/5 - {report.wrong_tone}/14)"
      f" = {report.score:.3f}")
