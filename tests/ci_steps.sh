#!/usr/bin/env bash
# The CI workflow's steps, one function each, run from the repository root:
#
#     bash tests/ci_steps.sh <step>    # one step, as .github/workflows/tests.yml calls it
#     bash tests/ci_steps.sh all       # every step but the two that run pip install
#
# Every step runs under bash -eo pipefail, as a workflow step with
# "shell: bash" does. tests/test_ci_steps.py checks that each step the
# workflow calls is defined here.
set -eo pipefail
cd "$(dirname "$0")/.."
# the digit-limit step keeps its scratch file in the runner's temp directory;
# off the runner, in a temporary directory removed on exit
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

install_test_dependencies() {
  python -m pip install pytest hypothesis
}

tier1_tests() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -W error -m pytest -q --continue-on-collection-errors
}

benchmark_harness_tests() {
  python3 -X dev -W error -m pytest -q perfbench/tests
}

self_check() {
  PYTHONPATH=src python -W error -m helixkit.cli verify
}

self_check_smallest_horizon() {
  # both series suites run at order 6
  PYTHONPATH=src python -W error -m helixkit.cli verify --horizon 5 --seed-samples 0
}

self_check_double_dual_cap() {
  # the double-dual suite at its 50-draw cap
  PYTHONPATH=src python -W error -m helixkit.cli verify --seed-samples 50
}

self_check_closed_form_120() {
  PYTHONPATH=src python -W error -m helixkit.cli verify --d-range 5:21 --horizon 120 --seed-samples 5
}

self_check_closed_form_400() {
  PYTHONPATH=src python -W error -m helixkit.cli verify --d-range 5:21 --horizon 400 --seed-samples 5
}

route_sweeps() {
  # quotient route against the ambient route; double-dual certificate against
  # the composed route; residual minor route against four products; series
  # route against the three-term recursion; triad's seed-table route against
  # the mutation chain
  PYTHONPATH=src python -W error tests/route_sweeps.py
}

digit_limit() {
  # past the int str digit limit, triad, seed-table, limits and hilbert print
  # nothing.
  # 640 is the least limit python accepts; every run must exit 65
  # (invalid input) with zero bytes of stdout, through python -m.
  # D = 10^629 + 1 parses under the limit, but its surds and series
  # do not print; at order 512 hilbert must stop at A's coefficient 2,
  # not build all 513. An order past the series cap (512) is refused
  # before A is built
  D="1$(printf '0%.0s' $(seq 628))1"
  for argv in "triad 1:0 2:5 1:5 --right --steps 2000" "triad 7:-27 7:-12 2:7 --left --steps 2000" \
      "seed-table 0 5/2 5 --n 2000" \
      "seed-table 0 5/2 5 --n 2000 --format csv" "seed-table 0 5/2 5 --n 2000 --format json" \
      "seed-table 0 5/2 5 --n 9000" "limits --d $D" "hilbert --d $D --order 6" \
      "hilbert --d $D --order 512" "hilbert --d 3 --order 1000000000"; do
    code=0
    PYTHONPATH=src python -X int_max_str_digits=640 -m helixkit.cli $argv > "$RUNNER_TEMP/stdout" || code=$?
    bytes=$(wc -c < "$RUNNER_TEMP/stdout")
    echo "$argv: exit $code, $bytes bytes of stdout"
    if [ "$code" -ne 65 ] || [ "$bytes" -ne 0 ]; then exit 1; fi
  done
  # at limit 658, row 1150's dp has the bit length of its d and is the
  # first entry past the limit: a row is refused for any of its entries
  argv="seed-table 0 5/2 5 --n 1150"
  code=0
  PYTHONPATH=src python -X int_max_str_digits=658 -m helixkit.cli $argv > "$RUNNER_TEMP/stdout" || code=$?
  bytes=$(wc -c < "$RUNNER_TEMP/stdout")
  echo "$argv (limit 658): exit $code, $bytes bytes of stdout"
  if [ "$code" -ne 65 ] || [ "$bytes" -ne 0 ]; then exit 1; fi
  # 200,000 rows would take about 20 GB: seed-table, and triad, which prints
  # the rows of a seed table, must stop growing at the first row they cannot
  # print, inside 1 GiB of address space
  (
    ulimit -v 1048576
    for argv in "seed-table 0 5/2 5 --n 200000" "triad 1:0 2:5 1:5 --right --steps 200000"; do
      code=0
      PYTHONPATH=src python -X int_max_str_digits=640 -m helixkit.cli $argv > "$RUNNER_TEMP/stdout" || code=$?
      bytes=$(wc -c < "$RUNNER_TEMP/stdout")
      echo "$argv (ulimit -v 1048576): exit $code, $bytes bytes of stdout"
      if [ "$code" -ne 65 ] || [ "$bytes" -ne 0 ]; then exit 1; fi
    done
  )
}

benchmark_smoke() {
  # every op's output is checked.
  # run.py exits 0 even when ops fail; the verdict is the last JSON line
  for w in verify koszul tables; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 | tail -n 1 \
      | python3 -c 'import json, sys; doc = json.load(sys.stdin); print({k: doc[k] for k in ("correct", "attempted", "failed")}); sys.exit(doc["correct"] is not True)'
  done
}

traced_benchmark_smoke() {
  # every traced name must still exist.
  # the tracer looks each TARGETS name up in its module or class, so a
  # deleted name fails here even when no src/ code calls it any more.
  # seed-table's periodicity check must go through the traced
  # verify_periodicity: the tables run must count calls to it
  for w in verify koszul tables; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 --trace 1 | tail -n 1 \
      | python3 -c 'import json, sys; doc = json.load(sys.stdin); calls = doc["metrics"]["helix.verify_periodicity.calls"]["value"]; print({k: doc[k] for k in ("correct", "attempted", "failed")}, f"verify_periodicity calls: {calls}"); sys.exit(doc["correct"] is not True or (sys.argv[1] == "tables" and calls == 0))' "$w"
  done
}

installed_console_script() {
  # the [project.scripts] entry point, run from the installed package
  python -m pip install .
  helixkit --version && helixkit verify
  # the import-graph guard against the installed package (src is not
  # on the path): no dataclasses or inspect, every module loaded
  python -m pytest -q tests/test_values.py -k test_import_graph_of_the_cli
}

# what "all" runs, in workflow order: the two steps that run pip install are
# left out, since they need the network and change the environment
LOCAL_STEPS=(
  tier1_tests
  benchmark_harness_tests
  self_check
  self_check_smallest_horizon
  self_check_double_dual_cap
  self_check_closed_form_120
  self_check_closed_form_400
  route_sweeps
  digit_limit
  benchmark_smoke
  traced_benchmark_smoke
)

step="${1:?usage: bash tests/ci_steps.sh <step> | all}"
if [ "$step" = all ]; then
  for s in "${LOCAL_STEPS[@]}"; do
    echo "== $s"
    "$s"
  done
elif declare -F "$step" > /dev/null; then
  "$step"
else
  echo "unknown step: $step" >&2
  exit 64
fi
