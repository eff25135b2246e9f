#!/bin/sh
# EXPERIMENTS.md's paper-vs-measured tables are sections of the paper
# report that `mcloudctl validate --users 20000 --seed 42` prints (the CI
# validate job's configuration). Every section of that report must appear
# in EXPERIMENTS.md, byte for byte, as a block
#
#   <!-- validate: NAME -->
#   ```text
#   ## NAME: caption
#   ...
#   ```
#   <!-- /validate: NAME -->
#
# A block that differs, a missing block, or a block naming no section fails
# the check, naming the section. To refresh the blocks after an intended
# change, paste the sections of the report over them.
#
#   check_experiments.sh MCLOUDCTL EXPERIMENTS_MD SCRATCH_DIR
ctl=$1 doc=$2 dir=$3
export LC_ALL=C
failed=0
rm -rf "$dir" && mkdir -p "$dir" || exit 1
# Exit 1 only says a check failed; the report is still printed.
"$ctl" validate --users 20000 --seed 42 > "$dir/report" 2> "$dir/stderr"
status=$?
if [ "$status" -gt 1 ] || [ ! -s "$dir/report" ]; then
  echo "mcloudctl validate exited $status"
  cat "$dir/stderr"
  exit 1
fi

# One file per section: its "## NAME: caption" line up to the next section
# or the closing "--- " lines, without the blank lines between sections.
awk -v dir="$dir" '
  /^## / {
    n++
    file = dir "/section." n
    print substr($0, 4, index($0, ":") - 4) > (dir "/names")
    blanks = 0
  }
  /^--- / { file = "" }
  file == "" { next }
  $0 == "" { blanks++; next }
  { for (; blanks > 0; blanks--) print "" > file; print > file }
' "$dir/report"
[ -s "$dir/names" ] || { echo "the report has no sections"; exit 1; }

i=0
while IFS= read -r name; do
  i=$((i + 1))
  if ! awk -v name="$name" '
    $0 == "<!-- /validate: " name " -->" { inside = 0 }
    inside && !/^```/ { print }
    $0 == "<!-- validate: " name " -->" { inside = 1; found = 1 }
    END { exit !found }
  ' "$doc" > "$dir/block.$i"; then
    echo "EXPERIMENTS.md has no block for section '$name'"
    failed=1
  elif ! diff -u "$dir/block.$i" "$dir/section.$i" > "$dir/diff.$i"; then
    echo "EXPERIMENTS.md section '$name' differs from the report:"
    cat "$dir/diff.$i"
    failed=1
  fi
done < "$dir/names"

# Blocks that name no section of the report are stale.
sed -n 's/^<!-- validate: \(.*\) -->$/\1/p' "$doc" | while IFS= read -r name; do
  grep -qxF "$name" "$dir/names" ||
    echo "EXPERIMENTS.md block '$name' names no section of the report"
done > "$dir/stale"
if [ -s "$dir/stale" ]; then
  cat "$dir/stale"
  failed=1
fi
exit $failed
