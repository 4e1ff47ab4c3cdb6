# Runs bench_table1 and bench_table3 small and checks their JSON documents:
# each binary exits 0 (no guarded-vs-native output mismatch) and every
# median/q1/q3 triple has q1 <= median <= q3. No wall-clock time is gated.
#   cmake -DBENCH_DIR=<dir of the binaries> -DOUT=<output dir> \
#         -P bench_tables_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(MAKE_DIRECTORY "${OUT}")
foreach(t table1 table3)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env DPG_BENCH_SCALE=0.05 DPG_BENCH_REPS=3
            DPG_BENCH_JSON=${OUT} ${BENCH_DIR}/bench_${t}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${t} exited ${rc}")
  endif()
  file(READ "${OUT}/BENCH_${t}.json" doc)
  string(JSON nrows LENGTH "${doc}" rows)
  math(EXPR last "${nrows} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${doc}" rows ${i} workload)
    foreach(kind seconds ratios)
      string(JSON ncols LENGTH "${doc}" rows ${i} ${kind})
      math(EXPR lastcol "${ncols} - 1")
      foreach(c RANGE ${lastcol})
        string(JSON col MEMBER "${doc}" rows ${i} ${kind} ${c})
        foreach(q median q1 q3)
          string(JSON ${q} GET "${doc}" rows ${i} ${kind} ${col} ${q})
        endforeach()
        if(q1 GREATER median OR median GREATER q3)
          message(FATAL_ERROR "${t} ${name} ${kind}.${col}: "
                              "q1 ${q1}, median ${median}, q3 ${q3}")
        endif()
      endforeach()
    endforeach()
  endforeach()
  message(STATUS "bench_${t}: ${nrows} rows, exit 0, quartiles ordered")
endforeach()
