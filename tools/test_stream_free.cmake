# confcall_serve links no iostreams: every byte it writes goes through
# the string-append path (src/support/text.h). A stream symbol in it
# means a stream crept back in, and with it the std::ios_base init and
# the locale facets the daemon's resident set no longer pays for
# (DESIGN.md §10.5).
#
# A dynamic daemon names what it takes from libstdc++ among its
# undefined symbols. A static one has none to name (the release link,
# DESIGN.md §10.6), so there the guard reads the symbols the link kept,
# and first checks that the binary asks for no dynamic loader: a
# PT_INTERP header means the static link was dropped.
#
#   cmake -DNM=<nm> -DREADELF=<readelf> -DSTATIC=ON|OFF
#         -DBIN=<confcall_serve> -P test_stream_free.cmake
if(STATIC)
  execute_process(
    COMMAND ${READELF} -l ${BIN}
    OUTPUT_VARIABLE headers RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "readelf failed on ${BIN}: ${code}")
  endif()
  if(headers MATCHES "INTERP")
    message(FATAL_ERROR
      "${BIN} has a PT_INTERP header: the release daemon is no longer "
      "linked statically")
  endif()
  set(scope --defined-only)
else()
  set(scope --undefined-only)
endif()
execute_process(
  COMMAND ${NM} -C ${scope} ${BIN}
  OUTPUT_VARIABLE symbols RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "nm failed on ${BIN}: ${code}")
endif()
if(STATIC AND NOT symbols MATCHES "confcall::")
  message(FATAL_ERROR "nm ${scope} on ${BIN} lists none of its own symbols")
endif()
set(stream_symbol
  "std::ios_base|basic_ostream|basic_istream|stringstream|fstream|std::locale")
string(REGEX MATCHALL "[^\n]*(${stream_symbol})[^\n]*" streams "${symbols}")
if(streams)
  list(JOIN streams "\n" listing)
  message(FATAL_ERROR "${BIN} links iostreams:\n${listing}")
endif()
