# confcall_serve links no iostreams: every byte it writes goes through
# the string-append path (src/support/text.h). A stream symbol among its
# undefined symbols means a stream crept back in, and with it the
# std::ios_base init and the locale facets the daemon's resident set no
# longer pays for (DESIGN.md §10).
#
#   cmake -DNM=<nm> -DBIN=<confcall_serve> -P test_stream_free.cmake
execute_process(
  COMMAND ${NM} -C --undefined-only ${BIN}
  OUTPUT_VARIABLE symbols RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "nm failed on ${BIN}: ${code}")
endif()
set(stream_symbol
  "std::ios_base|basic_ostream|basic_istream|stringstream|fstream|std::locale")
string(REGEX MATCHALL "[^\n]*(${stream_symbol})[^\n]*" streams "${symbols}")
if(streams)
  list(JOIN streams "\n" listing)
  message(FATAL_ERROR "${BIN} references iostreams:\n${listing}")
endif()
