// Lint fixture: a library header that no shipped entry point includes,
// directly or through another header or its .cc. Expected finding:
// [shipped-reach] on line 1.

#ifndef GKEYS_COMMON_ORPHAN_H_
#define GKEYS_COMMON_ORPHAN_H_

namespace gkeys {

inline int OrphanHelper() { return 42; }

}  // namespace gkeys

#endif  // GKEYS_COMMON_ORPHAN_H_
