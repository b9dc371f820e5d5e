#!/bin/sh
# One named point gives one answer: mcasim's cycle count equals the
# cycles column of a one-job mcarun campaign for the same point, at the
# default trace seed (which also seeds the compiler's profiling run).
#
#   tests/mcasim_matches_mcarun.sh MCASIM MCARUN
MCASIM="$1"
MCARUN="$2"
status=0
for point in "gcc1 dual8 local" "compress single8 native"; do
    set -- $point
    sim=$("$MCASIM" --benchmark "$1" --machine "$2" --scheduler "$3" \
        --quiet | sed -n 's/.* instructions, \([0-9]*\) cycles.*/\1/p')
    run=$("$MCARUN" --benchmarks "$1" --machines "$2" --schedulers "$3" \
        --no-cache --no-table --quiet --csv - 2>/dev/null |
        awk -F, 'NR == 1 { for (i = 1; i <= NF; i++)
                               if ($i == "cycles") col = i
                           next }
                 { print $col }')
    echo "$1/$2/$3: mcasim $sim cycles, mcarun $run cycles"
    if [ -z "$sim" ] || [ "$sim" != "$run" ]; then
        status=1
    fi
done
exit $status
