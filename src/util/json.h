// Minimal JSON helpers shared by the metrics report reader, the experiment
// spec round-trip, and the serve transport.
//
// parse_flat() is a recursive-descent reader for the documents this project
// writes (it is not a general-purpose parser).  Scalars land in the output
// map keyed by their dotted path ("manifest.seed", "sizes.0", ...); array
// elements use numeric path segments.  Strings are unescaped; numbers and
// keywords are kept as their literal token text so callers decide how to
// interpret them.
#pragma once

#include <map>
#include <string>

namespace hsw::json {

// Flattens one JSON document into dotted-path keys.  Returns false when the
// text is not a single well-formed document.
[[nodiscard]] bool parse_flat(const std::string& text,
                              std::map<std::string, std::string>* out);

// Escapes a string for embedding between double quotes in a JSON document
// (quotes, backslashes, newlines, tabs).
[[nodiscard]] std::string escape(const std::string& s);

// printf-style append for the report renderers.  Callers format every
// double with a fixed %.6f, so the bytes never depend on locale or platform.
void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace hsw::json
