"""Write a seeded planted-community hypergraph as graph JSON on stdout.

    python3 scripts/planted.py --edges 100000 --seed 5 > big.json
    hyperclust cluster big.json --scheme "representable:{E*},k=2"

The graph has ``--edges`` distinct edges on 0.3 times as many vertices
(rounded up to whole communities, at least one), in communities of 30.
Edge i has size 2, 3 or 4 in turn, so the size histogram depends only on
the edge count.  The first 90% of the edges each lie within one community
drawn at random, and the rest are drawn from all vertices.  The same
arguments always give the same bytes.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

COMMUNITY = 30
INSIDE = 0.9
SIZES = (2, 3, 4)


def planted(edges, seed):
    """The graph JSON object for ``edges`` edges from ``seed``.

    At most 90 edges fall inside each community on average, far fewer than
    its 435 pairs, so the draw of distinct edges always ends quickly.
    """
    communities = max(1, -(-edges // 100))
    n = communities * COMMUNITY
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    blocks = [names[i:i + COMMUNITY] for i in range(0, n, COMMUNITY)]
    rng = random.Random(seed)
    n_inside = int(edges * INSIDE)
    found = {}
    while len(found) < edges:
        k = SIZES[len(found) % len(SIZES)]
        pool = rng.choice(blocks) if len(found) < n_inside else names
        found.setdefault(tuple(sorted(rng.sample(pool, k))), None)
    id_width = len(str(edges - 1))
    return {
        "vertices": names,
        "edges": [
            {"id": f"e{i:0{id_width}d}", "vertices": list(members)}
            for i, members in enumerate(found)
        ],
    }


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=_positive, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(planted(args.edges, args.seed), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
