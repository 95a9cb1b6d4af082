#include "lib.h"

namespace robustmap {
namespace fixture {

int Reached(int x) { return x + 1; }

int UnreachedOutOfLine(int x) { return x - 1; }

}  // namespace fixture
}  // namespace robustmap
