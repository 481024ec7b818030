// Input validation at API boundaries, with one message shape for every
// config: "<Config>.<field> must be <rule>, got <value>".
#pragma once

#include <sstream>
#include <stdexcept>

namespace cyclops::util {

/// Throws std::invalid_argument naming `config`.`field`, the rule it
/// breaks and the offending value, unless `ok`.
template <class T>
void require(bool ok, const char* config, const char* field, const char* rule,
             const T& value) {
  if (ok) return;
  std::ostringstream message;
  message << config << '.' << field << " must be " << rule << ", got "
          << value;
  throw std::invalid_argument(message.str());
}

}  // namespace cyclops::util
