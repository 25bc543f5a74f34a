#!/usr/bin/env bash
# The README's command-line examples, each with its documented exit code.
# Run it from a scratch directory, with `hyperclust` on PATH: it writes
# line.dot, comma-names.json, bad-scheme.json and bad-scheme.err into the
# current directory.
#
#     bash scripts/readme-commands.sh
set -euo pipefail

hyperclust cluster H_6 --scheme "representable:{E_3},k=2"
timeout 60 hyperclust cluster E_12 --scheme "representable:{E*},k=1"
timeout 60 hyperclust cluster K_9 --scheme "representable:{R*},k=1"
timeout 60 hyperclust cluster P_1000 --scheme "representable:{R*},k=1"
timeout 60 hyperclust bench --motif K_3 --family hub --sizes 1000,2000,4000
hyperclust phi K_3 --motifs "{K_2}"
hyperclust linegraph P_3 --k 1 --dot line.dot
hyperclust check excisive --scheme "representable:{E*},k=2"
hyperclust check functorial --scheme toy:component_rule
status=0
hyperclust check equal --scheme "representable:{E*},k=1" \
    --scheme2 "representable:{E*},k=inf" || status=$?
test "$status" -eq 1
hyperclust check hull --motifs "{K_2}" --graph P_3
hyperclust check connected-hull --motifs "{E_3}" --graph G_4 --k 2 \
    --extra H_6
hyperclust witness --motifs "{R_0,R_1,R_2}"
hyperclust search --max-vertices 9
hyperclust bench --motif P_3 --sizes 100,200,400 --cap 2

# Vertex names that hold the line graph's separator: {a,b} and {"a,b"} get
# the distinct names {a,b} and {a\,b}.
cat > comma-names.json <<'JSON'
{"vertices": ["a", "a,b", "b", "c"],
 "edges": [{"id": "e1", "vertices": ["a", "b"]},
           {"id": "e2", "vertices": ["a,b", "c"]},
           {"id": "e3", "vertices": ["a,b"]}]}
JSON
hyperclust linegraph comma-names.json --k 1

# A scheme file whose inline motif has an empty edge is refused as input
# (exit 2, one `error:` line), not run.
cat > bad-scheme.json <<'JSON'
{"kind": "sigma",
 "motif": {"vertices": ["a", "b", "c"],
           "edges": [{"id": "e1", "vertices": []},
                     {"id": "e2", "vertices": ["a", "b"]},
                     {"id": "e3", "vertices": ["b", "c"]}]}}
JSON
status=0
hyperclust cluster K_3 --scheme @bad-scheme.json 2> bad-scheme.err || status=$?
test "$status" -eq 2
head -n 1 bad-scheme.err | grep -q '^error:'
