#!/bin/sh
# The what-if mains read their numbers as flags of the tools' one grammar
# (tools/args.h): a number that does not fill its token, an unknown flag or
# a positional exits 2 before the main prints anything, and a tiny run of
# each main exits 0.
#
#   check_whatif_args.sh CACHE CHUNKING CONNECTIONS DEFERRAL METADATA
cache=$1 chunking=$2 connections=$3 deferral=$4 metadata=$5
failed=0

# CMD exits 2 and prints nothing on stdout.
rejects() {
  out=$("$@" 2> /dev/null)
  status=$?
  if [ "$status" -ne 2 ] || [ -n "$out" ]; then
    echo "exit $status, want 2 and no output: $*"
    failed=1
  fi
}

# CMD exits 0.
accepts() {
  "$@" > /dev/null 2>&1 || { echo "failed: $*"; failed=1; }
}

# MAIN with --threads abc, its count flag FLAG at 2x00, a stray positional
# and an unknown flag.
rejected_by() {
  rejects "$1" --threads abc
  rejects "$1" --threads -3
  rejects "$1" "$2" 2x00
  rejects "$1" 200
  rejects "$1" --bogus 1
}

rejected_by "$cache" --flows
rejected_by "$chunking" --file-mb
rejected_by "$connections" --files
rejected_by "$deferral" --users
rejected_by "$metadata" --users
"$deferral" --threads abc 2>&1 |
  grep -q -- '--threads takes an integer' ||
  { echo "no message naming --threads"; failed=1; }

accepts "$cache" --flows 20 --seed 3 --threads 2
accepts "$chunking" --file-mb 1 --flows 2 --threads 2
accepts "$connections" --files 1 --threads 2
accepts "$deferral" --users 200 --seed 3 --threads 2
accepts "$metadata" --users 200 --seed 3 --threads 2
exit $failed
