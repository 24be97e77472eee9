"""Compare two grid tables written by ``grid/run.py``.

    python grid/compare.py BENCH_grid_f64.json BENCH_grid_f32.json

prints one Markdown row per (cell, run, figure): the baseline's median and
seed spread (max - min), the candidate's median, their difference, and
whether it lies within max(spread, 1/400), one row of the 400-row test set.
``wall_s`` gets no verdict: it is the speed the comparison does not judge.
Exits 1 if any other figure falls outside its bound.
"""

from __future__ import annotations

import json
import sys

ONE_ROW = 1 / 400


def main(base_file: str, new_file: str) -> int:
    base, new = (json.load(open(f)) for f in (base_file, new_file))
    print(f"| cell | run | figure | {base['tag']} median | spread | {new['tag']} median "
          f"| diff | within |")
    print("|---|---|---|---|---|---|---|---|")
    outside = 0
    for cell, runs in base["cells"].items():
        for run, entry in runs.items():
            for figure in base["figures"]:
                values = [s[figure] for s in entry["seeds"].values()]
                spread = max(values) - min(values)
                diff = new["cells"][cell][run]["median"][figure] - entry["median"][figure]
                verdict = "n/a"
                if figure != "wall_s":
                    # the slack absorbs float rounding: 0.9975 - 0.995 > 1 / 400
                    ok = abs(diff) <= max(spread, ONE_ROW) + 1e-12
                    outside += not ok
                    verdict = "yes" if ok else "**no**"
                print(f"| {cell} | {run} | {figure} | {entry['median'][figure]:g} | {spread:g} "
                      f"| {new['cells'][cell][run]['median'][figure]:g} | {diff:+.4g} "
                      f"| {verdict} |")
    print(f"\n{outside} figure(s) outside max(spread, 1/400)")
    return 1 if outside else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
