#!/bin/sh
# The one grammar of mcloudctl, mcloudd and mcloudload (tools/args.h): each
# tool or command takes only its own flags, a value flag needs a value that
# is neither empty nor another flag, and a numeric flag takes only a number
# that fills its token and fits the field it is stored in. Anything else
# exits 2 before the tool prints or writes anything; an accepted value or
# flag still runs.
#
#   check_strict_numbers.sh MCLOUDCTL MCLOUDD MCLOUDLOAD SCRATCH_DIR
ctl=$1 daemon=$2 load=$3 dir=$4
out=$dir/out
trace=$dir/trace.v2
specs=$(dirname "$0")/../specs
failed=0
rm -rf "$dir" && mkdir -p "$dir" || exit 1
"$ctl" generate --users 50 --seed 3 "$trace" 2> /dev/null || exit 1

# CMD exits 2, prints nothing on stdout and creates no $out.
rejects() {
  "$@" > "$dir/stdout" 2> /dev/null
  status=$?
  if [ "$status" -ne 2 ] || [ -s "$dir/stdout" ] || [ -e "$out" ]; then
    echo "exit $status, want 2 and no output: $*"
    failed=1
    rm -rf "$out"
  fi
}

# CMD exits 0 and creates $out.
accepts() {
  "$@" > /dev/null 2>&1 && [ -e "$out" ] || { echo "failed: $*"; failed=1; }
  rm -rf "$out"
}

# CMD takes its flags: it runs and creates $out, though at this scale its
# checks may fail (exit 1).
parses() {
  "$@" > /dev/null 2>&1
  status=$?
  if [ "$status" -gt 1 ] || [ ! -e "$out" ]; then
    echo "exit $status, want 0 or 1 and $out: $*"
    failed=1
  fi
  rm -rf "$out"
}

for v in '' abc 1e3x 2x00; do
  rejects "$ctl" generate --users "$v" --seed 3 "$out"
  rejects "$ctl" generate --users 200 --threads "$v" --seed 3 "$out"
  rejects "$ctl" generate --users 200 --out-of-core --max-memory-mb "$v" "$out"
  rejects "$ctl" grow --users 200 --max-memory-mb "$v" "$out"
  rejects "$ctl" simulate --fail-rate "$v" --users 20
  rejects "$ctl" simulate --fail-rate 0.01 --shards "$v" --users 20
  rejects "$daemon" --port "$v" --self-check --log "$out"
  rejects "$load" --users "$v" --duration 1 --spawn "$daemon" --json "$out"
  rejects "$load" --users 5 --qps "$v" --duration 1 --spawn "$daemon" \
    --json "$out"
done
rejects "$ctl" simulate --fail-rate 0.01 --shards 4294967297 --users 20
rejects "$daemon" --port 70000 --self-check --log "$out"
rejects "$daemon" --port 1x --self-check --log "$out"

# A flag the command does not take, misspelt or retired, exits 2 and names
# the flag and the command. Retired: --analyze-while-generate, --concurrent
# and validate/conform --out-of-core (both always walk the slices).
rejects "$ctl" generate --users 1000 --bogus 3 --thread 2 "$out"
rejects "$ctl" generate --users 200 --thread 2 "$out"
rejects "$ctl" analyze --users 5 "$trace"
rejects "$ctl" sessions "$trace" --threads 2
rejects "$ctl" grow --users 200 --analyze-while-generate --seed 3 "$out"
rejects "$ctl" validate --users 200 --concurrent --json "$out"
rejects "$ctl" validate --users 200 --out-of-core --spill-dir "$out"
rejects "$ctl" conform enterprise-sync --specs-dir "$specs" --users 200 \
  --out-of-core --spill-dir "$out"
"$ctl" generate --users 200 --bogus 3 "$out" 2>&1 |
  grep -q 'generate does not take --bogus' ||
  { echo "no message naming generate and --bogus"; failed=1; }
rejects "$daemon" --bogus
rejects "$daemon" --port 0 --self-check stray
rejects "$load" --bogus 1 --users 5 --spawn "$daemon" --json "$out"
rejects "$load" --users 5 --spawn "$daemon" --json "$out" stray

# A value flag whose value is missing, empty or another flag exits 2 naming
# the flag. `anonymize --key` with no key used to write the trace under the
# empty key, an unkeyed mapping anyone can invert by enumerating ids.
rejects "$ctl" anonymize "$trace" "$out" --key
rejects "$ctl" anonymize "$trace" "$out" --key ''
rejects "$ctl" anonymize "$trace" "$out" --key --json
rejects "$ctl" generate --users 20 "$out" --anonymize
rejects "$ctl" generate --users 20 --anonymize '' "$out"
rejects "$ctl" validate --users 200 --flows 20 --json
rejects "$ctl" validate --users 200 --flows 20 --json --max-memory-mb 64
rejects "$ctl" validate --users 200 --flows 20 --spill-dir
rejects "$daemon" --port 0 --log
rejects "$daemon" --port 0 --self-check --stats-json ''
rejects "$load" --users 5 --spawn "$daemon" --json
"$ctl" anonymize "$trace" "$out" --key 2>&1 |
  grep -q 'anonymize --key needs a value' ||
  { echo "no message naming anonymize and --key"; failed=1; }

# Every flag the README, CI, perfbench and the ctest smoke runs pass.
accepts "$ctl" generate --users 200 --pc 10 --threads 2 --seed 3 "$out"
accepts "$ctl" generate --users 200 --out-of-core --max-memory-mb 64 "$out"
accepts "$ctl" generate --users 20 --spec photo-backup-heavy \
  --specs-dir "$specs" --anonymize key "$out"
accepts "$ctl" generate --users 20 --pc 0 --faults --fail-rate 0.01 \
  --loss-burst 0.01 --degraded 0.01 --fault-seed 5 --hedge "$out"
accepts "$ctl" grow --users 200 --pc 10 --seed 3 --threads 2 --tau 1800 \
  --max-memory-mb 64 "$out"
accepts sh -c '"$0" analyze "$1" --tau auto --threads 2 --max-memory-mb 64 \
  > "$2"' "$ctl" "$trace" "$out"
accepts sh -c '"$0" sessions "$1" --tau 1800 --top 5 > "$2"' \
  "$ctl" "$trace" "$out"
accepts "$ctl" convert "$trace" "$out"
accepts "$ctl" anonymize "$trace" "$out" --key key
accepts sh -c '"$0" simulate --fail-rate 0.01 --loss-burst 0.01 --hedge \
  --degraded 0.01 --no-retry --fault-seed 5 --users 20 --pc 0 --threads 2 \
  --shards 4 --seed 1 > "$1"' "$ctl" "$out"
accepts sh -c '"$0" simulate --device ios --direction retrieve --file-mb 1 \
  --seed 2 --no-ssai --pace > "$1"' "$ctl" "$out"
accepts sh -c '"$0" specs --specs-dir "$1" > "$2"' "$ctl" "$specs" "$out"
parses "$ctl" validate --users 200 --seed 42 --seeds 1 --threads 2 \
  --flows 20 --shards 2 --max-memory-mb 64 --spill-dir "$dir/spill" \
  --json "$out"
parses "$ctl" validate --users 200 --spec paper2016 --specs-dir "$specs" \
  --flows 20 --json "$out"
parses "$ctl" conform enterprise-sync --specs-dir "$specs" --users 200 \
  --seed 1 --threads 2 --max-memory-mb 64 --spill-dir "$dir/spill" \
  --json "$out"
parses "$ctl" matrix paper2016 --specs-dir "$specs" --grids none \
  --connections baseline --chunks paper --users 20 --seed 1 --threads 2 \
  --shards 2 --json "$out"
accepts "$daemon" --port 0 --self-check --log "$out"
accepts "$load" --users 5 --qps 2000 --spawn "$daemon" --json "$out"
exit $failed
