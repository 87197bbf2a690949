// Register-binding rules (LW4xx).  A binding colors the value-conflict
// relation (§III): overlapping lifetimes must not share a register, every
// value needs exactly one register, and the register count is bounded
// below by the max-live clique.
#include <string>
#include <vector>

#include "check/internal.h"
#include "check/rules.h"
#include "regbind/binding.h"
#include "regbind/lifetime.h"

namespace locwm::check {

using detail::diag;

Report checkBinding(const cdfg::Cdfg& g, const regbind::LifetimeTable& table,
                    const regbind::Binding& binding,
                    const std::vector<regbind::BindingParseIssue>& issues,
                    const std::string& artifact) {
  Report r;

  // LW402: entries the lenient parser flagged (non-value nodes, registers
  // at or above the declared count, values never assigned).
  for (const regbind::BindingParseIssue& issue : issues) {
    r.add(diag("LW402", Severity::kError, artifact,
               issue.line != 0 ? "line " + std::to_string(issue.line)
                               : std::string{},
               issue.what,
               "a binding assigns every register value exactly once, within "
               "the declared register count"));
  }

  if (binding.reg_of.size() != table.values.size()) {
    r.add(diag("LW402", Severity::kError, artifact, {},
               "binding assigns " + std::to_string(binding.reg_of.size()) +
                   " values, the design produces " +
                   std::to_string(table.values.size()),
               "re-derive the binding from this design and schedule"));
    return r;
  }

  for (std::size_t i = 0; i < binding.reg_of.size(); ++i) {
    if (binding.reg_of[i] >= binding.register_count) {
      r.add(diag("LW402", Severity::kError, artifact,
                 detail::nodeRef(g, table.values[i].producer),
                 "value is bound to register " +
                     std::to_string(binding.reg_of[i]) +
                     ", but only " + std::to_string(binding.register_count) +
                     " registers are declared",
                 {}));
    }
  }

  // LW401: conflicting values sharing a register — the invariant
  // isValidBinding() certifies, reported pairwise with the producers named.
  for (std::size_t i = 0; i < table.values.size(); ++i) {
    for (std::size_t j = i + 1; j < table.values.size(); ++j) {
      if (binding.reg_of[i] == binding.reg_of[j] &&
          table.values[i].overlaps(table.values[j])) {
        r.add(diag("LW401", Severity::kError, artifact,
                   "register " + std::to_string(binding.reg_of[i]),
                   "values of " + detail::nodeRef(g, table.values[i].producer) +
                       " and " + detail::nodeRef(g, table.values[j].producer) +
                       " overlap in time yet share the register",
                   "overlapping lifetimes must be bound to distinct "
                   "registers"));
      }
    }
  }

  // LW403: more registers than the max-live lower bound — legitimate
  // (aliases, live-outs, non-optimal binder) but worth surfacing.
  const std::uint32_t bound = regbind::maxLive(table);
  if (binding.register_count > bound) {
    r.add(diag("LW403", Severity::kInfo, artifact, {},
               "binding uses " + std::to_string(binding.register_count) +
                   " registers; the max-live lower bound is " +
                   std::to_string(bound),
               "extra registers may come from alias (watermark) constraints "
               "or a non-optimal binder"));
  }

  return r;
}

}  // namespace locwm::check
