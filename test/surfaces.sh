#!/bin/sh
# Save what the sulong CLI prints for every corpus bug, repaired variant
# and bench program (test/surface_programs.ml writes them, with their
# arguments and input): the stdout, stderr and exit status of
#   - `sulong run` under sulong, sulong --tier, and clang, asan and
#     valgrind at -O 0 and -O 3,
#   - `sulong compare`,
#   - `sulong ir -O 0` and `sulong ir -O 3`,
# as OUT/NAME.SURFACE.{stdout,stderr,status}.  The programs run from one
# directory under their own names, so the outputs of two builds compare
# with `diff -r OUT1 OUT2`.
#
#   test/surfaces.sh SULONG_EXE OUT
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 SULONG_EXE OUT" >&2
  exit 2
fi
exe=$(realpath "$1")
mkdir -p "$2"
out=$(realpath "$2")
root=$(dirname "$(realpath "$0")")/..
(cd "$root" && dune build ./test/surface_programs.exe)
progs=$(mktemp -d)
trap 'rm -rf "$progs"' EXIT
"$root/_build/default/test/surface_programs.exe" "$progs"
cd "$progs"

# surface NAME SURFACE ARGS...: run the CLI with ARGS, save what it prints
surface() {
  name=$1
  tag=$2
  shift 2
  status=0
  "$exe" "$@" > "$out/$name.$tag.stdout" 2> "$out/$name.$tag.stderr" || status=$?
  echo "$status" > "$out/$name.$tag.status"
}

for src in *.c; do
  name=${src%.c}
  input=$(cat "$name.input"; echo x)
  input=${input%x}
  set --
  while IFS= read -r arg; do
    set -- "$@" --arg="$arg"
  done < "$name.argv"
  surface "$name" run-sulong run "$src" --engine sulong "$@" --input="$input"
  surface "$name" run-sulong-tier run "$src" --engine sulong --tier "$@" --input="$input"
  for engine in clang asan valgrind; do
    for level in 0 3; do
      surface "$name" "run-$engine-O$level" run "$src" --engine "$engine" -O "$level" "$@" --input="$input"
    done
  done
  surface "$name" compare compare "$src" "$@" --input="$input"
  surface "$name" ir-O0 ir "$src" -O 0
  surface "$name" ir-O3 ir "$src" -O 3
done
