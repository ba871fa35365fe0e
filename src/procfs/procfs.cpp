#include "dproc/procfs/procfs.hpp"

#include <algorithm>

namespace dproc::procfs {

namespace {

/// Yields the non-empty '/'-separated components of a path, in place.
class PathWalker {
 public:
  explicit PathWalker(std::string_view path) : rest_(path) {}

  bool next(std::string_view& component) {
    while (!rest_.empty() && rest_.front() == '/') rest_.remove_prefix(1);
    if (rest_.empty()) return false;
    const std::size_t end = std::min(rest_.find('/'), rest_.size());
    component = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return true;
  }

 private:
  std::string_view rest_;
};

bool is_dot(std::string_view component) {
  return component == "." || component == "..";
}

std::string quoted(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 2);
  out += '\'';
  out += path;
  out += '\'';
  return out;
}

/// The components of `path`, which need not be absolute.
Result<std::vector<std::string_view>> split_relative(std::string_view path) {
  std::vector<std::string_view> components;
  PathWalker walker{path};
  std::string_view component;
  while (walker.next(component)) {
    if (is_dot(component)) {
      return Status::invalid_argument("'.' and '..' are not supported");
    }
    components.push_back(component);
  }
  return components;
}

Result<std::vector<std::string_view>> split_path(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return Status::invalid_argument("path must be absolute: " + quoted(path));
  }
  return split_relative(path);
}

}  // namespace

ProcFs::ProcFs() : root_(std::make_unique<Node>()) {}

ProcFs::Found ProcFs::find(std::string_view path) const {
  if (path.empty() || path.front() != '/') return {};
  Found found{root_.get(), 0};
  PathWalker walker{path};
  std::string_view component;
  while (walker.next(component)) {
    if (is_dot(component)) return {};
    const Children& entries = found.node->entries();
    auto it = entries.find(component);
    if (it == entries.end()) return {};
    found.node = it->second.get();
    if (found.node->bound != nullptr) found.context = found.node->context;
  }
  return found;
}

ProcFs::Node* ProcFs::ensure_directories(Node& root,
                                         const Components& components,
                                         std::size_t count, Status& status) {
  Node* node = &root;
  for (std::size_t i = 0; i < count; ++i) {
    if (!node->directory) {
      status = Status::invalid_argument(quoted(components[i - 1]) +
                                        " is a file, not a directory");
      return nullptr;
    }
    if (node->bound != nullptr) {
      status = Status::invalid_argument(quoted(components[i - 1]) +
                                        " is bound to a shared subtree");
      return nullptr;
    }
    node = &child(*node, components[i]);
  }
  if (!node->directory) {
    status = Status::invalid_argument("path component is a file");
    return nullptr;
  }
  if (node->bound != nullptr) {
    status = Status::invalid_argument(
        "path component is bound to a shared subtree");
    return nullptr;
  }
  return node;
}

Status ProcFs::add_file(Node& root, const Components& components,
                        std::string_view path, SharedReadHandler read,
                        SharedWriteHandler write) {
  if (components.empty()) {
    return Status::invalid_argument("cannot register the root as a file");
  }
  Status status;
  Node* dir =
      ensure_directories(root, components, components.size() - 1, status);
  if (dir == nullptr) return status;

  const bool existed = dir->children.contains(components.back());
  Node& file = child(*dir, components.back());
  if (existed && file.directory) {
    return Status::already_exists(quoted(path) + " exists as a directory");
  }
  file.directory = false;
  file.read = std::move(read);
  file.write = std::move(write);
  return Status::ok();
}

Status ProcFs::register_file(const std::string& path, ReadHandler read,
                             WriteHandler write) {
  auto components = split_path(path);
  if (!components) return components.status();
  SharedReadHandler shared_read;
  if (read) {
    shared_read = [read = std::move(read)](Context) { return read(); };
  }
  SharedWriteHandler shared_write;
  if (write) {
    shared_write = [write = std::move(write)](Context,
                                              const std::string& data) {
      return write(data);
    };
  }
  return add_file(*root_, components.value(), path, std::move(shared_read),
                  std::move(shared_write));
}

ProcFs::Node& ProcFs::child(Node& dir, std::string_view name) {
  auto it = dir.children.find(name);
  if (it == dir.children.end()) {
    it = dir.children.emplace(std::string{name}, std::make_unique<Node>())
             .first;
  }
  return *it->second;
}

Status ProcFs::register_shared_file(std::string_view tree,
                                    std::string_view path,
                                    SharedReadHandler read,
                                    SharedWriteHandler write) {
  auto components = split_relative(path);
  if (!components) return components.status();
  return add_file(child(shared_, tree), components.value(), path,
                  std::move(read), std::move(write));
}

Status ProcFs::bind(const std::string& path, std::string_view tree,
                    Context context) {
  auto components = split_path(path);
  if (!components) return components.status();
  const auto& parts = components.value();
  if (parts.empty()) return Status::invalid_argument("cannot bind the root");
  Status status;
  Node* dir = ensure_directories(*root_, parts, parts.size() - 1, status);
  if (dir == nullptr) return status;
  const bool existed = dir->children.contains(parts.back());
  Node& binding = child(*dir, parts.back());
  if (existed && binding.bound == nullptr) {
    return Status::already_exists(quoted(path) + " exists and is not bound");
  }
  binding.bound = &child(shared_, tree);
  binding.context = context;
  return Status::ok();
}

Status ProcFs::mkdir(const std::string& path) {
  auto components = split_path(path);
  if (!components) return components.status();
  Status status;
  if (ensure_directories(*root_, components.value(), components.value().size(),
                         status) == nullptr) {
    return status;
  }
  return Status::ok();
}

Status ProcFs::remove(const std::string& path) {
  auto components = split_path(path);
  if (!components) return components.status();
  const auto& parts = components.value();
  if (parts.empty()) return Status::invalid_argument("cannot remove the root");
  Node* node = root_.get();
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) {
      return Status::not_found(quoted(path) + " does not exist");
    }
    node = it->second.get();
    if (node->bound != nullptr) {
      return Status::failed_precondition(quoted(path) +
                                         " lies in a shared subtree");
    }
  }
  auto it = node->children.find(parts.back());
  if (it == node->children.end()) {
    return Status::not_found(quoted(path) + " does not exist");
  }
  node->children.erase(it);
  return Status::ok();
}

Result<std::string> ProcFs::read(const std::string& path) const {
  const Found found = find(path);
  if (found.node == nullptr) {
    return Status::not_found(quoted(path) + " does not exist");
  }
  if (found.node->directory) {
    return Status::invalid_argument(quoted(path) + " is a directory");
  }
  if (!found.node->read) return std::string{};
  return found.node->read(found.context);
}

Status ProcFs::write(const std::string& path, const std::string& data) {
  const Found found = find(path);
  if (found.node == nullptr) {
    return Status::not_found(quoted(path) + " does not exist");
  }
  if (found.node->directory) {
    return Status::invalid_argument(quoted(path) + " is a directory");
  }
  if (!found.node->write) {
    return Status{StatusCode::kPermissionDenied,
                  quoted(path) + " is read-only"};
  }
  return found.node->write(found.context, data);
}

Result<std::vector<std::string>> ProcFs::list(const std::string& path) const {
  const Node* node = find(path).node;
  if (node == nullptr) {
    return Status::not_found(quoted(path) + " does not exist");
  }
  if (!node->directory) {
    return Status::invalid_argument(quoted(path) + " is not a directory");
  }
  const Children& entries = node->entries();
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& [name, child] : entries) {
    names.push_back(child->directory ? name + "/" : name);
  }
  return names;
}

bool ProcFs::exists(const std::string& path) const {
  return find(path).node != nullptr;
}

bool ProcFs::is_directory(const std::string& path) const {
  const Node* node = find(path).node;
  return node != nullptr && node->directory;
}

void ProcFs::render(const Node& node, std::string_view name, int depth,
                    std::string& out) {
  if (depth >= 0) {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += name;
    if (node.directory) out += '/';
    out += '\n';
  }
  for (const auto& [child_name, child] : node.entries()) {
    render(*child, child_name, depth + 1, out);
  }
}

std::string ProcFs::tree() const {
  std::string out;
  render(*root_, "", -1, out);
  return out;
}

}  // namespace dproc::procfs
