#include "lang/program.h"

namespace lps {

std::string Program::ToString() const {
  std::string out;
  for (const Clause& c : *clauses_) {
    out += ClauseToString(*store_, signature_, c);
    out += '\n';
  }
  return out;
}

}  // namespace lps
