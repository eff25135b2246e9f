#!/bin/sh
# Numeric flags of mcloudctl, mcloudd and mcloudload take only a number that
# fills its token and fits the field it is stored in. Anything else exits 2
# before the tool prints or writes anything; an accepted value still runs.
#
#   check_strict_numbers.sh MCLOUDCTL MCLOUDD MCLOUDLOAD SCRATCH_DIR
ctl=$1 daemon=$2 load=$3 dir=$4
out=$dir/out
failed=0
rm -rf "$dir" && mkdir -p "$dir" || exit 1

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
# validate runs one execution mode: out of core or concurrent, not both.
rejects "$ctl" validate --out-of-core --concurrent --users 200 --json "$out"

accepts "$ctl" generate --users 200 --threads 2 --seed 3 "$out"
accepts "$ctl" generate --users 200 --out-of-core --max-memory-mb 64 "$out"
accepts "$ctl" grow --users 200 --max-memory-mb 64 "$out"
accepts sh -c '"$0" simulate --fail-rate 0.01 --shards 4 --users 20 > "$1"' \
  "$ctl" "$out"
accepts "$daemon" --port 0 --self-check --log "$out"
accepts "$load" --users 5 --qps 2000 --spawn "$daemon" --json "$out"
exit $failed
