"""Anatomy of Vietnamese syllables: onsets, rimes, tones, tone classes.

Run:  python demos/01_syllable_anatomy.py
"""

from lucbat import normalize_verse, parse_syllable

WORDS = [
    "ta", "trường", "mệnh", "già", "gì", "quý", "của", "người",
    "khuya", "nghiêng", "thuở", "xoong",
]

print("word        onset  rime     tone    class")
print("-" * 46)
for word in WORDS:
    s = parse_syllable(word)
    print(f"{word:<10}  {s.onset or '-':<5}  {s.rime:<7}  {s.tone.value:<6}  "
          f"{s.tone.tone_class.value}")

print()
print("Tone marks are lifted off the rime, so rhyme and tone stay independent:")
for word in ["ta", "tà", "tá", "tả", "tã", "tạ"]:
    s = parse_syllable(word)
    print(f"  {word}: rime={s.rime!r} tone={s.tone.value} ({s.tone.tone_class.value})")

print()
print("Misplaced or decomposed tone marks normalize to one canonical spelling:")
for variant in ["hòa", "hoà", "hòa"]:
    print(f"  {variant!r:>10} -> {parse_syllable(variant).normalized!r}")

print()
print("Verse normalization for identity checks:")
line = "Trăm năm,  trong cõi… người TA!"
print(f"  {line!r}")
print(f"  -> {normalize_verse(line)!r}")
