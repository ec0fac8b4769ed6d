"""Known solver defects, run on every benchmark run apart from the workloads.

The workloads hold only scenes the solver handles, so `failed` is 0 while
the program is right and the same from run to run. Scenes on which the
solver is known to fail run here instead, once per run, outside the timed
loop. They are reported as `info defect.*` lines and in the run's record,
not in `attempted` or `failed`. A change that fixes a defect brings its
count to 0. See NOTES.md, "Known defects".
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from fovmax import ConvexPolygon, maximize_global

import checks
import scenes

# Triangles seen from an apex about 1e-9 edge lengths off an edge's line,
# on the far side: `maximize_global` misses the interior maximum of a cell
# whose derivative changes sign twice. Near-line triangles drawn with the
# small_scenes generator at seeds 5 and 31; the workload's near-line scenes
# therefore have four or more vertices.
WRONG_ANSWER_SCENES = (
    ([(1.1362850648731582, -1.2103471950945508), (-0.43858539896141213, 1.702696305055223),
      (-1.1292675308983093, 1.2699838275763031)],
     (-2.1976755546949023, 0.6006260131991806), 0.5436401865070419),
    ([(-1.399908268318096, 0.8772707055547366), (0.42739748683108864, -1.3093234350492535),
      (1.12320233307718, -0.1883643796808498)],
     (1.4755469649015536, 0.37927165709965865), 0.7797897726261366),
)

# Near-line scenes with the apex on the polygon's side: `maximize_global`
# raises InvalidInputError on about half of them.
INNER_NEAR_LINE_SCENES = 20


def probe(seed: int) -> Dict[str, tuple]:
    """Counts of defect scenes the solver still fails on."""
    rng = np.random.default_rng([seed, 1])
    raises = 0
    for _ in range(INNER_NEAR_LINE_SCENES):
        s = scenes.near_line_scene(rng, 1.0)
        try:
            maximize_global(ConvexPolygon(s.vertices), s.apex, s.phi, scenes.SMALL_PREC)
        except Exception:  # the defect: a valid scene raises
            raises += 1
    wrong = 0
    for vertices, apex, phi in WRONG_ANSWER_SCENES:
        poly = ConvexPolygon(vertices)
        try:
            res = maximize_global(poly, apex, phi, scenes.SMALL_PREC)
        except Exception:
            wrong += 1
            continue
        domain = checks.admissible_domain(poly, apex, phi)
        wrong += bool(checks.check_solve(poly, apex, phi, res.theta_star, res.area, domain))
    return {
        "defect.near_line_inner_raises": (raises, "count"),
        "defect.near_line_inner_scenes": (INNER_NEAR_LINE_SCENES, "count"),
        "defect.wrong_answers": (wrong, "count"),
        "defect.wrong_answer_scenes": (len(WRONG_ANSWER_SCENES), "count"),
    }
