#!/usr/bin/env bash
# The runtime CI job's CLI and probe checks, run from an installed copy:
#     bash ci/runtime_checks.sh
# Each check is a command that must exit 0, or a usage error whose exit
# code must be 2.  Scratch files go to a temporary directory, removed on exit.
set -eo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

quartzeq threshold --a 2 --b 0
# the d-identity bound stops this scan after 125 of its 200 grid rows;
# rounds of 25 rows then rescan the bracket of the best one
quartzeq threshold --a 0.8 --b -1.08 --alpha 0.3
# the scan sets its own extent: past x = 1e6 the d-identity bound
# stops it, here after the peak near x = 4.7e7
quartzeq threshold --a 3 --b 1.99 --alpha 0.9

# b <= -2 is a usage error, and so are a nan flag, a term cap below 1,
# a non-numeric family configuration, a flag the verb does not read
# (--seed outside reproduce), power-law flags for the piecewise family,
# log spacing from x = 0 and a criterion that does not exist;
# each exit code is captured, since bash -e stops at a nonzero one
code=0; quartzeq threshold --a 2 --b -2.5 || code=$?
test "$code" -eq 2
code=0; quartzeq equilibrium --x 1 --r nan || code=$?
test "$code" -eq 2
code=0; quartzeq equilibrium --x 1 --term-cap 0 || code=$?
test "$code" -eq 2
echo '{"kind": "tabulated", "k": ["a"], "p": [1], "q": [0]}' > bad_family.json
code=0; quartzeq equilibrium --family-config bad_family.json --x 1 || code=$?
test "$code" -eq 2
code=0; quartzeq classify --a 2 --b 0 --seed 1 || code=$?
test "$code" -eq 2
code=0; quartzeq equilibrium --a 2 --b 0 --x 1 || code=$?
test "$code" -eq 2
code=0; quartzeq equilibrium --x-min 0 --spacing log || code=$?
test "$code" -eq 2
code=0; quartzeq reproduce --criterion 11 || code=$?
test "$code" -eq 2

# the probe's scan stops where the d-identity bound rules out a
# crossing, long before the grid rows past the 10^6 term cap
python -c "from quartzeq import PowerLawFamily, count_equilibria_probe as p; print(p(PowerLawFamily.from_ab(0.2, -1.5), 0.2, 1.0))"
# on b = a - 1, F < 1 at every x: alpha/r >= 1 has no root and needs
# no scan (a scan of this family fails past the 10^6 term cap)
python -c "from quartzeq import PowerLawFamily, count_equilibria_probe as p; assert p(PowerLawFamily.from_ab(0.054, -0.946), 1.2, 1.0) == (0, ())"

# F at one x in one 64-term block: its interval value +- tail_bound holds
# F_piecewise, widened by F_piecewise's own relative error (an interval, not
# bytes, since power-law bits differ between numpy's SIMD paths)
one_block="import json, sys; row = json.load(sys.stdin)['rows'][0]; assert row['terms_used'] == 64, row"
in_interval="import json, sys; from quartzeq.piecewise import F_piecewise, _F_REL_ERR; row = json.load(sys.stdin)['rows'][0]; f = F_piecewise(1.3, 7, 2.0); assert abs(row['value'] - f) <= row['tail_bound'] + _F_REL_ERR * f, (row, f)"
quartzeq equilibrium --family piecewise --k 1.3 --N 7 --x 2 --format json > one_block.json
python -c "$one_block" < one_block.json
python -c "$in_interval" < one_block.json
quartzeq equilibrium --family power_law --a 1.5 --b 0.2 --x 3 --format json | python -c "$one_block"

# each grid is one batched walk; F's rows are cross-checked
quartzeq equilibrium --family power_law --a 2 --b 0 --x-min 1e-2 --x-max 1e6 --count 200
quartzeq equilibrium --family piecewise --k 1 --N 2 --quantity kM --r 2 --spacing linear --x-min 0 --x-max 10 --count 21

# the piecewise family is the table of N + 2 rows, (k, 1, 0) for cohorts
# 0..N and then (k, 0, 1), whose constant tail repeats the last row
echo '{"kind": "tabulated", "k": [1.5, 1.5, 1.5, 1.5, 1.5], "p": [1, 1, 1, 1, 0], "q": [0, 0, 0, 0, 1]}' > table.json
quartzeq equilibrium --family piecewise --k 1.5 --N 3 > piecewise.csv
quartzeq equilibrium --family-config table.json > table.csv
cmp <(tail -n +2 piecewise.csv) <(tail -n +2 table.csv)

# one walk gives both identity-audit residuals, G and d, each within 1e-10
audit_ok="import json, sys; doc = json.load(sys.stdin); assert doc['G']['residual'] <= 1e-10 and doc['d']['residual'] <= 1e-10, doc"
quartzeq identity-audit --family power_law --a 2 --b 0 --x 3 | python -c "$audit_ok"
quartzeq identity-audit --family-config table.json --x 3 | python -c "$audit_ok"

# the K expansion: one Euler-Maclaurin generator, one residue routine
quartzeq asym --a 0.7 --b -0.4 --depth 4 --compare-grid 1000,100000
# a monomial within 1e-13 of a Gamma pole takes the merged log term
quartzeq asym --a 2 --b -1.9999999999999 --depth 4 --compare-grid 10000,100000
# the exact zeta(-60) of this expansion needs the Bernoulli number B_61
quartzeq asym --a 15 --b 0 --depth 4 --compare-grid 10000,100000

quartzeq simulate --family piecewise --k 1 --N 2 --alpha 0.2 --r 1 --imax 20 --t-end 100

echo '{"k": 1.0, "N": 1, "alpha": 0.2, "r": 1.0}' > run.json
quartzeq --config run.json roots
# README's golden roots at alpha 0.2, the tangent at 0.25 and no root at 0.3
quartzeq roots --k 1 --N 1 --alpha 0.2 --r 1 | python -c "import json, sys; assert json.load(sys.stdin)['roots'] == [0.3819660112501051, 2.6180339887498936]"
quartzeq roots --k 1 --N 1 --alpha 0.25 --r 1 | python -c "import json, sys; assert json.load(sys.stdin)['classification'] == 'tangent'"
quartzeq roots --k 1 --N 1 --alpha 0.3 --r 1 | python -c "import json, sys; assert json.load(sys.stdin)['classification'] == 'no_roots'"
# two roots at N = 100000: the peak is one O(N) pass
quartzeq roots --k 1 --N 100000 --alpha 1 --r 1
echo '{"a": 2, "b": 0}' > classify.json
quartzeq --config classify.json classify
