// Small string helpers shared across modules.
#pragma once

#include <string>
#include <vector>

namespace treesched::util {

/// Splits s on the given delimiter; consecutive delimiters yield empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if s starts with the given prefix.
bool starts_with(const std::string& s, const std::string& prefix);

/// `v` with 17 significant digits ("%.17g"), enough to round-trip exactly.
std::string exact_num(double v);

/// exact_num for finite `v`; "null" for NaN and infinities, which JSON
/// cannot represent.
std::string json_num(double v);

}  // namespace treesched::util
