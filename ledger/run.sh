#!/bin/sh
# Builds the ledger from the source tree this is run in, then runs it with
# the given arguments. Run it from the root of the tree:
#
#   sh ledger/run.sh --workload fanout_bare --seed 1 --seconds 10 --trace 0
#
# The build stays in the tree (_build/, no shared dune cache). Build
# errors go to stderr and the exit code is dune's.
exec dune exec --root . --cache=disabled --display quiet -- ./ledger/ledger.exe "$@"
