// In-memory /proc pseudo-filesystem.
//
// Files are handler pairs: reads render current state on demand (like a real
// procfs read_proc), writes parse user input and may fail with an error the
// caller sees (the errno + dmesg experience). dproc mounts its cluster tree
// under /proc/cluster/<node>/..., with one `control` file per node entry for
// parameters and filter deployment.
//
// Directories that look alike are built once: a shared subtree holds files
// whose handlers take a context, and each directory bound to it shows the
// subtree's files, handing them the binding's context. d-mon binds every
// peer's /proc/cluster/<name> to one such subtree, with the peer's node id
// as the context.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dproc/util/status.hpp"

namespace dproc::procfs {

class ProcFs {
 public:
  using ReadHandler = std::function<std::string()>;
  using WriteHandler = std::function<Status(const std::string&)>;
  /// What a binding hands the files of its shared subtree (d-mon: the
  /// peer's node id).
  using Context = std::uint32_t;
  using SharedReadHandler = std::function<std::string(Context)>;
  using SharedWriteHandler = std::function<Status(Context, const std::string&)>;

  ProcFs();
  ProcFs(const ProcFs&) = delete;
  ProcFs& operator=(const ProcFs&) = delete;

  /// Registers a pseudo-file; intermediate directories are created. A null
  /// `write` makes the file read-only (writes return PERMISSION_DENIED).
  Status register_file(const std::string& path, ReadHandler read,
                       WriteHandler write = {});

  /// Registers a file at `path` (relative to the subtree's root) in the
  /// shared subtree named `tree`, creating the subtree on first use. Every
  /// binding of `tree`, present or later, shows the file.
  Status register_shared_file(std::string_view tree, std::string_view path,
                              SharedReadHandler read,
                              SharedWriteHandler write = {});

  /// Binds directory `path` to the shared subtree `tree` (created empty if
  /// new; parents are created): the directory lists, renders and resolves
  /// as the subtree, and reads and writes below it get `context`. Binding a
  /// bound path again replaces its tree and context; a path that is a file
  /// or a plain directory is refused. remove() drops the binding. Nothing
  /// can be registered, created or removed below a binding.
  Status bind(const std::string& path, std::string_view tree,
              Context context);

  /// Creates a directory (and parents). Idempotent.
  Status mkdir(const std::string& path);

  /// Removes a file, a directory subtree or a binding.
  Status remove(const std::string& path);

  [[nodiscard]] Result<std::string> read(const std::string& path) const;
  Status write(const std::string& path, const std::string& data);

  /// Lists directory entries in name order; directories get a '/' suffix.
  [[nodiscard]] Result<std::vector<std::string>> list(
      const std::string& path) const;

  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] bool is_directory(const std::string& path) const;

  /// Renders the whole tree as an indented listing (Figure 1 style).
  [[nodiscard]] std::string tree() const;

 private:
  struct Node;
  using Children = std::map<std::string, std::unique_ptr<Node>, std::less<>>;
  struct Node {
    bool directory = true;
    SharedReadHandler read;
    SharedWriteHandler write;
    Children children;
    /// Set on a bound directory: the shared subtree's root, whose children
    /// stand in for this node's.
    const Node* bound = nullptr;
    Context context = 0;

    /// The entries this directory shows: the shared subtree's if bound.
    [[nodiscard]] const Children& entries() const {
      return (bound != nullptr ? *bound : *this).children;
    }
  };
  /// A resolved path: the node and the context of the last binding the
  /// walk passed through (0 outside any binding).
  struct Found {
    const Node* node = nullptr;
    Context context = 0;
  };

  using Components = std::vector<std::string_view>;

  [[nodiscard]] Found find(std::string_view path) const;
  /// Walks (creating) the directories of `components[0, count)` from
  /// `root`; nullptr with `status` set at a file or a binding.
  static Node* ensure_directories(Node& root, const Components& components,
                                  std::size_t count, Status& status);
  /// Registers the file `components` names below `root`; `path` is the
  /// caller's spelling, for error messages.
  static Status add_file(Node& root, const Components& components,
                         std::string_view path, SharedReadHandler read,
                         SharedWriteHandler write);
  /// The child `name` of `dir`, created (an empty directory) if absent.
  static Node& child(Node& dir, std::string_view name);
  static void render(const Node& node, std::string_view name, int depth,
                     std::string& out);

  std::unique_ptr<Node> root_;
  /// Holds the shared subtrees' roots as its children, by name; they are
  /// never removed, so a binding's root pointer stays valid for the file
  /// system's lifetime.
  Node shared_;
};

}  // namespace dproc::procfs
