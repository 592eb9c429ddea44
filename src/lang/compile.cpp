#include "lang/compile.hpp"

namespace sdl::lang {

void load_program(Runtime& rt, Program program) {
  for (ProcessDef& def : program.defs) {
    rt.define(std::move(def));
  }
  rt.seed(std::move(program.seeds));
  for (auto& [name, args] : program.spawns) {
    rt.spawn(name, std::move(args));
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
