#include "timing/stat_gate_model.h"

namespace sckl::timing {

const char* stat_parameter_name(std::size_t parameter) {
  switch (parameter) {
    case kParamL:
      return "L";
    case kParamW:
      return "W";
    case kParamVt:
      return "Vt";
    case kParamTox:
      return "tox";
    default:
      return "?";
  }
}

}  // namespace sckl::timing
