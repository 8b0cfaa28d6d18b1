#!/usr/bin/env python3
"""Calibration evidence for the ambiguity and vagueness thresholds.

Replays the bundled corpus and prints, per app, the hedge density and the
count of vague-assurance sentences next to the annotated verdicts, then the
separating windows and the thresholds of the bundled rules file. Those
thresholds must split the corpus exactly as annotated, else the script exits
nonzero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from praf.corpus import load_codebook
from praf.detect import DetectionDimension as Dim, default_rules_path, detect_ambiguity, detect_vague_commitments, load_rules
from praf.ingest import cache_get
from praf.readability import analyze

FIXTURES = ROOT / "src" / "praf" / "data" / "fixtures"


def main() -> None:
    codebook = load_codebook(FIXTURES / "codebook.json")
    rules = load_rules(default_rules_path())
    rows = []
    for rec in codebook.records:
        cached = cache_get(FIXTURES / "cache", rec.policy_url)
        if cached is None or not cached.accessible:
            continue
        marks = codebook.overrides_for(rec.pseudonym)
        doc = analyze(cached.text)
        amb = detect_ambiguity(doc, rules)
        vague = detect_vague_commitments(doc, rules)
        rows.append((
            rec.pseudonym,
            amb.detail["density"], marks[Dim.AMBIGUOUS_LANGUAGE].value, amb.verdict.value,
            vague.detail["vague_sentences"], marks[Dim.VAGUE_COMMITMENTS].value, vague.verdict.value,
        ))

    print("app   hedge-density  amb(mark/detected)   vague-sentences  vague(mark/detected)")
    disagreements = 0
    for app, dens, amark, adet, vcount, vmark, vdet in rows:
        flag = "" if (amark == adet and vmark == vdet) else "  <- disagrees"
        disagreements += 0 if not flag else 1
        print(f"{app:<5} {dens:>8.3f}      {amark:>7}/{adet:<9} {vcount:>10}       {vmark}/{vdet}{flag}")

    neg = [d for _, d, m, *_ in rows if m == "no"]
    pos = [d for _, d, m, *_ in rows if m == "partial"]
    print(f"\nhedge density: annotated 'no' max {max(neg):.3f}; "
          f"annotated 'partial' range [{min(pos):.3f}, {max(pos):.3f}]")
    amb = rules.rules_for(Dim.AMBIGUOUS_LANGUAGE).thresholds
    vague = rules.rules_for(Dim.VAGUE_COMMITMENTS).thresholds
    print(f"shipped thresholds: partial >= {amb['partial_density']}, yes >= {amb['yes_density']}; "
          f"vague yes >= {vague['yes_sentences']} sentences")
    if disagreements:
        print(f"{disagreements} corpus texts disagree with their annotations")
        sys.exit(1)
    print("thresholds separate the corpus exactly as annotated")


if __name__ == "__main__":
    main()
