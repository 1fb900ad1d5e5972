#include "protocol/registry.h"

#include <utility>

#include "common/strings.h"
#include "protocol/mvto.h"
#include "protocol/pw_mvto.h"

namespace nonserial {

const std::vector<ProtocolKind>& AllProtocolKinds() {
  static const std::vector<ProtocolKind> kKinds = {
      ProtocolKind::kStrict2pl, ProtocolKind::kPredicatewise2pl,
      ProtocolKind::kMvto,      ProtocolKind::kPwMvto,
      ProtocolKind::kCep,       ProtocolKind::kNestedCep};
  return kKinds;
}

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kCep:
      return "CEP";
    case ProtocolKind::kStrict2pl:
      return "S2PL";
    case ProtocolKind::kPredicatewise2pl:
      return "PW-2PL";
    case ProtocolKind::kMvto:
      return "MVTO";
    case ProtocolKind::kPwMvto:
      return "PW-MVTO";
    case ProtocolKind::kNestedCep:
      return "Nested-CEP";
  }
  return "?";
}

StatusOr<ProtocolKind> ParseProtocolKind(const std::string& name) {
  std::vector<std::string> names;
  for (ProtocolKind kind : AllProtocolKinds()) {
    if (name == ProtocolKindName(kind)) return kind;
    names.push_back(ProtocolKindName(kind));
  }
  return Status::InvalidArgument(StrCat("unknown protocol '", name,
                                        "' (registered: ", Join(names, ", "),
                                        ")"));
}

ControllerFactory MakeControllerFactory(ProtocolKind kind,
                                        ProtocolSetup setup) {
  using CepOptions = CorrectExecutionProtocol::Options;
  switch (kind) {
    case ProtocolKind::kCep:
      return [](VersionStore* store, const CepOptions& options) {
        return std::make_unique<CorrectExecutionProtocol>(store, options);
      };
    case ProtocolKind::kStrict2pl:
    case ProtocolKind::kPredicatewise2pl: {
      TwoPhaseLockingController::Options options;
      options.predicatewise = kind == ProtocolKind::kPredicatewise2pl;
      options.objects = std::move(setup.objects);
      options.planned_ops = std::move(setup.planned_ops);
      return [options](VersionStore* store, const CepOptions&) {
        return std::make_unique<TwoPhaseLockingController>(store, options);
      };
    }
    case ProtocolKind::kMvto:
      return [](VersionStore* store, const CepOptions&) {
        return std::make_unique<MvtoController>(store);
      };
    case ProtocolKind::kPwMvto:
      return [objects = std::move(setup.objects)](VersionStore* store,
                                                  const CepOptions&) {
        return std::make_unique<PwMvtoController>(store, objects);
      };
    case ProtocolKind::kNestedCep:
      return [nested = std::move(setup.nested)](VersionStore* store,
                                                const CepOptions&) {
        return std::make_unique<NestedCepController>(store, nested);
      };
  }
  return nullptr;
}

}  // namespace nonserial
