# Drives the built sweep_runner through its command line:
#   cmake -DRUNNER=path/to/sweep_runner -DEXPECTED=path/to/list.expected \
#         -P sweep_runner_cli.cmake
# 1. --list with every grid axis and every grid-wide scalar set to a
#    non-default value must print exactly the committed id list.
# 2. --help exits 0.
# 3. An unknown flag exits 2 and names it.

execute_process(
  COMMAND ${RUNNER} --list
    --workloads=Fashion-like --attacks=LIE,MinMax --gars=Median,SignGuard
    --skews=iid,0.3 --byz=0.1 --participation=0.5 --dropout=0.1
    --straggler=0.05 --codecs=none,topk --shards=1,4 --faults=wan
    --deadline=300 --churn=0.05 --adaptive=0,1 --wirecraft=1 --collude=0.1
    --model=paper --codec-chunk=1024 --codec-k=0.1 --shard-merge=momed
    --churn-absence=3 --quorum-min=5 --quorum-survivors=3
    --quorum-action=skip --rounds=3 --clients=12 --seed=11
  RESULT_VARIABLE code OUTPUT_VARIABLE listed ERROR_VARIABLE ignored)
file(READ ${EXPECTED} expected)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--list exited ${code}")
endif()
if(NOT listed STREQUAL expected)
  message(FATAL_ERROR "--list ids differ from ${EXPECTED}:\n${listed}")
endif()

execute_process(COMMAND ${RUNNER} --help
  RESULT_VARIABLE code OUTPUT_VARIABLE ignored ERROR_VARIABLE help)
if(NOT code EQUAL 0 OR NOT help MATCHES "--quorum-action=NAME")
  message(FATAL_ERROR "--help exited ${code}:\n${help}")
endif()

execute_process(COMMAND ${RUNNER} --byzz=0.3 --list
  RESULT_VARIABLE code OUTPUT_VARIABLE listed ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "--byzz=0.3" OR NOT listed STREQUAL "")
  message(FATAL_ERROR "unknown flag exited ${code}:\n${err}${listed}")
endif()
