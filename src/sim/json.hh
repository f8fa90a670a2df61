/**
 * @file
 * The one JSON string escaper shared by every writer (result sink,
 * journal, expectation report, metrics exporter).
 */

#ifndef SLFWD_SIM_JSON_HH_
#define SLFWD_SIM_JSON_HH_

#include <string>

namespace slf
{

/** @p s escaped for use inside a JSON string literal: `"` and `\`
 *  backslash-escaped, \n \r \t spelled out, other control bytes as
 *  \u00XX; every other byte passes through unchanged. */
std::string jsonEscape(const std::string &s);

} // namespace slf

#endif // SLFWD_SIM_JSON_HH_
