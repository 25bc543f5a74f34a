#!/usr/bin/env bash
# The README's command-line examples, each with its documented exit code.
# Run it from a scratch directory, with `hyperclust` on PATH: it writes
# line.dot, comma-names.json, quote-names.json, quote-names.dot,
# quote-names.out, search-7.json, bad-scheme.json, bad-scheme.err,
# bad-graph.json and bad-graph.err into the current directory.
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
# Below 8 vertices the search is decided by proof: exhausted, exhaustively.
hyperclust search --max-vertices 7 > search-7.json
python3 - search-7.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["outcome"] == "exhausted", report
assert report["exhaustive_search"] is True, report
assert "witness" not in report, report
PY
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

# A vertex name that holds a double quote: the DOT file escapes it as \",
# so every line has an even number of unescaped quotes, and the node IDs,
# read back, are the JSON output's line-graph vertices.
cat > quote-names.json <<'JSON'
{"vertices": ["a\"b", "c", "d"],
 "edges": [{"id": "e1", "vertices": ["a\"b", "c"]},
           {"id": "e2", "vertices": ["c", "d"]}]}
JSON
hyperclust linegraph quote-names.json --k 1 --dot quote-names.dot > quote-names.out
python3 - quote-names.dot quote-names.out <<'PY'
import json, re, sys
lines = open(sys.argv[1]).read().splitlines()
vertices = json.load(open(sys.argv[2]))["vertices"]
unescaped_quote = re.compile(r'(?<!\\)(?:\\\\)*"')
assert all(len(unescaped_quote.findall(line)) % 2 == 0 for line in lines), lines
ids = [re.match(r'  "((?:[^"\\]|\\.)*)" \[', line) for line in lines]
nodes = [re.sub(r'\\(["\\])', lambda m: m[0] if m[1] == "\\" else m[1], m[1]) for m in ids if m]
assert nodes == vertices == ['{a"b,c}', "{c,d}"], (nodes, vertices)
PY

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

# A graph file whose vertex list is a string is refused as input (exit 2,
# one `error:` line), not read as the vertices v, 1 and 0.
cat > bad-graph.json <<'JSON'
{"vertices": "v10", "edges": []}
JSON
status=0
hyperclust cluster bad-graph.json --scheme "representable:{E*},k=2" 2> bad-graph.err || status=$?
test "$status" -eq 2
head -n 1 bad-graph.err | grep -q '^error:'
