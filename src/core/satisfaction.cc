#include "core/satisfaction.h"

#include "core/em_common.h"
#include "eq/equivalence.h"

namespace gkeys {

std::vector<Violation> FindViolations(const Graph& g, const KeySet& keys,
                                      size_t limit) {
  std::vector<Violation> out;
  const EmContext ctx(g, keys, PlanOptions{.use_pairing = false});
  EqView identity;  // Eq0
  for (const Candidate& c : ctx.candidates()) {
    for (int ki : *c.keys) {
      const CompiledKey& ck = ctx.compiled_keys()[ki];
      if (KeyIdentifies(g, ck.cp, c.e1, c.e2, identity, c.nbr1, c.nbr2)) {
        out.push_back(Violation{c.e1, c.e2, ck.key->name()});
        if (limit != 0 && out.size() >= limit) return out;
        break;  // one violation per pair is enough evidence
      }
    }
  }
  return out;
}

std::string FormatViolation(const Graph& g, const Violation& v) {
  return v.key + ": " + g.DescribeNode(v.e1) + " == " +
         g.DescribeNode(v.e2);
}

}  // namespace gkeys
