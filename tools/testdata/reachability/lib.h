// Reachability gate fixture: one function the fixture's main reaches, one
// unreached out-of-line function, one unreached header-inline function.
#ifndef REACHABILITY_FIXTURE_LIB_H_
#define REACHABILITY_FIXTURE_LIB_H_

namespace robustmap {
namespace fixture {

int Reached(int x);
int UnreachedOutOfLine(int x);

inline int UnreachedInline(int x) { return x * 3; }

}  // namespace fixture
}  // namespace robustmap

#endif  // REACHABILITY_FIXTURE_LIB_H_
