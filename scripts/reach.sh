#!/bin/sh
# reach.sh: which code does any command, example or the benchmark enter?
#
# Builds the four commands and five examples with -cover -coverpkg=./...,
# runs each over a fixed matrix with GOCOVERDIR set, and prints the share of
# statements the matrix reached, the per-package shares and every function it
# never entered. Standard library only (go tool covdata, go tool cover). Any
# matrix command that exits other than the way it should fails the script;
# the share is printed, not gated on. Run from the repository root:
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
# eight-lane Miller-Rabin walk runs.
step "$b/benchmark" -smoke -out "$work/out"
step "$b/benchmark" -smoke -trace 1 -out "$work/out"
step "$b/benchmark" -steps 2 -out "$work/out"

step "$b/hectl" keygen -bits 256 -seed 7
step "$b/hectl" encrypt -bits 256 -seed 7 12 34 56
step "$b/hectl" add -bits 256 -seed 7 12 34
step "$b/hectl" bench -bits 256 -seed 7 -n 64

demo="$b/flserver demo -clients 4 -dim 4 -bits 128"
for c in fedavg trimmed-mean median norm-clip krum; do
	step $demo -groups 4 -defense "$c"
done
for k in sign-flip scale noise zero collude; do
	step $demo -groups 4 -byz "$k"
done
step $demo -clients 6 -cohort 4 -fanout 2
step $demo -devices 3 -trace "$work/out/flserver.json"
step $demo -quorum 3 -timeout 300ms -straggle 2s

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
