#include "lang/compile.hpp"

#include <string_view>
#include <unordered_map>

namespace sdl::lang {

void load_program(Runtime& rt, Program program) {
  // Each spawn name is resolved once, not once per spawn.
  std::unordered_map<std::string_view, const ProcessDef*> defs;
  for (ProcessDef& def : program.defs) {
    const ProcessDef& registered = rt.define(std::move(def));
    defs.emplace(registered.name, &registered);
  }
  rt.seed(std::move(program.seeds));
  for (auto& [name, args] : program.spawns) {
    auto [it, fresh] = defs.try_emplace(name);
    if (fresh) it->second = rt.find_def(name);
    if (it->second == nullptr) {
      rt.spawn(name, std::move(args));  // throws: unknown process type
    } else {
      rt.spawn(*it->second, std::move(args));
    }
  }
}

void load_source(Runtime& rt, const std::string& source) {
  load_program(rt, parse_program(source));
}

void load_path(Runtime& rt, const std::string& path) {
  load_program(rt, parse_file(path));
}

std::string checkpoint_dataspace(const Dataspace& space) {
  std::string out = "init {\n";
  for (const Record& r : space.snapshot()) {
    out += "  " + r.tuple.to_string() + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace sdl::lang
