#!/bin/sh
# reach.sh: which code does any command, example or the benchmark enter?
#
# Builds the four commands and five examples with -cover -coverpkg=./...,
# runs each over a fixed matrix with GOCOVERDIR set, and prints the share of
# statements the matrix reached, the per-package shares and every function it
# never entered. Standard library only (go tool covdata, go tool cover). Any
# matrix command that exits other than the way it should fails the script.
#
# Every function the matrix never enters must have a line in
# scripts/reach_allow.txt:
#
#	<path> <func> <tag>: <reason>
#
# keyed by the file (relative to the repository root) and the function name,
# so one line covers every same-named function in that file. The tag is one
# of fault-path, reference, test-seam, platform, frozen or error-path. The script fails on a never-entered function with no line, on
# a malformed or repeated line, and on a stale line: one whose function no
# longer exists, or that the matrix entered. A platform line (a body only
# some CPUs run) is stale only when its function is gone. The share is
# printed, not gated on. Run from the repository root:
#
#	make reach
set -eu

GO=${GO:-go}
work=$(mktemp -d)
hubpid=
cleanup() {
	[ -n "$hubpid" ] && kill "$hubpid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

mkdir -p "$work/bin" "$work/cov" "$work/out"
export GOCOVERDIR="$work/cov"

for pkg in ./cmd/flbench ./cmd/flserver ./cmd/hectl ./benchmark \
	./examples/credit ./examples/ctr ./examples/quickstart ./examples/textcat ./examples/verticalnn; do
	"$GO" build -cover -coverpkg=./... -o "$work/bin/$(basename "$pkg")" "$pkg"
done

# step runs one matrix command, discarding its output unless it fails.
step() {
	echo "reach: $*"
	if ! "$@" >"$work/log" 2>&1; then
		cat "$work/log"
		echo "reach: FAILED: $*" >&2
		exit 1
	fi
}
b=$work/bin

step "$b/flbench" -keys 128 all ablation
step "$b/flbench" -keys 128 -trace "$work/out/flbench.json" -metrics "$work/out/flbench.txt" table3 fig8
step "$b/flbench" -paper -scale 0.0004 -keys 128 -epochs 1 table2 fig7

# The full-size pass is the only one with 2,048-bit keys, where the
# eight-lane Miller-Rabin walk runs. Two same-seed sets print their spread;
# a one-workload run ends with its contract line.
step "$b/benchmark" -smoke -repeat 2 -out "$work/out"
step "$b/benchmark" -smoke -workload cohort_tree_128 -out "$work/out"
step "$b/benchmark" -smoke -trace 1 -out "$work/out"
step "$b/benchmark" -steps 2 -out "$work/out"

step "$b/hectl" keygen -bits 256 -seed 7
step "$b/hectl" bench -bits 256 -seed 7 -n 64

demo="$b/flserver demo -clients 4 -dim 4 -bits 128"
step $demo -clients 6 -cohort 4 -fanout 2
step $demo -devices 3 -trace "$work/out/flserver.json"
step $demo -quorum 3 -timeout 300ms -straggle 2s
if $demo -fanout 1 >"$work/log" 2>&1 || ! grep -q 'invalid -fanout' "$work/log"; then
	cat "$work/log"
	echo "reach: FAILED: -fanout 1 was not rejected as a flag error" >&2
	exit 1
fi

# Split roles over a loopback hub: three clients, a server that crashes right
# after the aggregate is durable, and its successor resuming from the journal.
"$b/flserver" hub -addr 127.0.0.1:0 >"$work/hub.log" 2>&1 &
hubpid=$!
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's/^hub listening on //p' "$work/hub.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "reach: the hub never listened" >&2; exit 1; }
echo "reach: hub on $addr, server crash at aggregated, resume"
party="-addr $addr -clients 3 -bits 128 -seed 5"
clients=
for id in 0 1 2; do
	"$b/flserver" client $party -id $id -values "0.$id,-0.1,0.2" >"$work/client$id.log" 2>&1 &
	clients="$clients $!"
done
if "$b/flserver" server $party -journal "$work/round.wal" -failpoint aggregated >"$work/log" 2>&1 ||
	! grep -q 'simulated coordinator crash' "$work/log"; then
	cat "$work/log"
	echo "reach: FAILED: the -failpoint server did not crash at its failpoint" >&2
	exit 1
fi
step "$b/flserver" server $party -journal "$work/round.wal" -resume
for pid in $clients; do
	wait "$pid" || { cat "$work"/client*.log; echo "reach: FAILED: a client of the resumed round" >&2; exit 1; }
done
kill -INT "$hubpid"
wait "$hubpid" || { cat "$work/hub.log"; echo "reach: FAILED: the hub did not drain" >&2; exit 1; }
hubpid=

for ex in credit ctr quickstart textcat verticalnn; do
	step "$b/$ex"
done

"$GO" tool covdata textfmt -i "$work/cov" -o "$work/cover.out"
"$GO" tool cover -func "$work/cover.out" >"$work/func.txt"
echo
echo "per-package statement share:"
"$GO" tool covdata percent -i "$work/cov" | sed 's/^[[:space:]]*/  /'
echo
echo "functions never entered:"
grep -v '^total:' "$work/func.txt" | awk '$NF == "0.0%" { print "  " $1 " " $2 }'
funcs=$(grep -vc '^total:' "$work/func.txt")
unentered=$(grep -v '^total:' "$work/func.txt" | awk '$NF == "0.0%"' | wc -l)
echo
echo "reached $(awk '/^total:/ { print $NF }' "$work/func.txt") of statements; $unentered of $funcs functions never entered"

# Gate the never-entered list on the allowlist. A key is "<path> <func>": the
# path without the module prefix and the line number. A key is never entered
# when any function it covers is.
grep -v '^total:' "$work/func.txt" | awk -v mod="$("$GO" list -m)/" '{
	path = $1; sub("^" mod, "", path); sub(/:[0-9]+:$/, "", path)
	key = path " " $2
	if ($NF == "0.0%") state[key] = "unentered"
	else if (!(key in state)) state[key] = "entered"
} END { for (k in state) print k, state[k] }' | sort >"$work/keys.txt"
echo
awk -v allow=scripts/reach_allow.txt '
FNR == NR { key = $1 " " $2; keys[++nkeys] = key; state[key] = $3; next }
/^#/ || /^[[:space:]]*$/ { next }
{
	tag = $3; sub(/:$/, "", tag); key = $1 " " $2
	if (NF < 4 || $3 !~ /:$/ || tag !~ /^(fault-path|reference|test-seam|platform|frozen|error-path)$/) {
		printf "reach: %s:%d: want \"<path> <func> <tag>: <reason>\" with a known tag\n", allow, FNR; bad++; next
	}
	if (key in seen) { printf "reach: %s:%d: %s listed twice\n", allow, FNR, key; bad++; next }
	seen[key] = 1; count[tag]++; total++
	if (!(key in state)) { printf "reach: %s:%d: stale: %s no longer exists\n", allow, FNR, key; bad++ }
	else if (state[key] == "entered" && tag != "platform") { printf "reach: %s:%d: stale: the matrix enters %s\n", allow, FNR, key; bad++ }
}
END {
	for (i = 1; i <= nkeys; i++) if (state[keys[i]] == "unentered" && !(keys[i] in seen)) {
		printf "reach: never entered and not in %s: %s\n", allow, keys[i]; bad++
	}
	printf "allowlist: %d entries:", total
	n = split("fault-path reference test-seam platform frozen error-path", order, " ")
	for (i = 1; i <= n; i++) printf " %s %d", order[i], count[order[i]] + 0
	printf "\n"
	exit (bad > 0)
}' "$work/keys.txt" scripts/reach_allow.txt || { echo "reach: FAILED: the never-entered list and scripts/reach_allow.txt disagree" >&2; exit 1; }
