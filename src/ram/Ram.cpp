//===- ram/Ram.cpp - RAM IR helpers -----------------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ram/Ram.h"

namespace stird::ram {

std::uint32_t searchSignature(const std::vector<ExprPtr> &Pattern) {
  std::uint32_t Signature = 0;
  for (std::size_t I = 0; I < Pattern.size(); ++I)
    if (Pattern[I] && Pattern[I]->getKind() != Expression::Kind::Undef)
      Signature |= (1U << I);
  return Signature;
}

void Program::forEachRoot(
    const std::function<void(RootKind, std::size_t, const Statement *)>
        &Visit) const {
  Visit(RootKind::Main, 0, Main.get());
  if (!hasMaintenance())
    return;
  Visit(RootKind::MaintPrologue, 0, MaintPrologue.get());
  for (std::size_t I = 0; I < MaintStrata.size(); ++I)
    Visit(RootKind::MaintStratum, I, MaintStrata[I].Stmt.get());
  Visit(RootKind::MaintEpilogue, 0, MaintEpilogue.get());
}

void Program::rewriteRoots(
    const std::function<StmtPtr(const Statement &)> &Rewrite) {
  auto Apply = [&](StmtPtr &Root) {
    if (Root)
      Root = Rewrite(*Root);
  };
  Apply(Main);
  Apply(MaintPrologue);
  for (MaintStratum &S : MaintStrata)
    Apply(S.Stmt);
  Apply(MaintEpilogue);
}

} // namespace stird::ram
