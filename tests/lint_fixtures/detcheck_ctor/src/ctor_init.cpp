// mmhar_detcheck fixture: braces inside constructor mem-initializer lists.
// Each constructor body and the root defined after it carry a seeded
// violation; all four must be found, so the bodies are attributed to
// their constructors and later definitions stay in the call graph.
// Scanned as text only — never compiled. Keep line numbers stable.
namespace fixture {

class Buffer {
 public:
  Buffer(int n, float fill) MMHAR_DETERMINISTIC;
  explicit Buffer(int n) MMHAR_DETERMINISTIC;

 private:
  std::vector<float> data_;
};

Buffer::Buffer(int n, float fill) : data_(n, float{fill}) {
  data_[0] = static_cast<float>(std::rand());
}

int after_paren_init() MMHAR_DETERMINISTIC {
  return std::rand();
}

Buffer::Buffer(int n) : data_{static_cast<float>(n)} {
  data_[0] = static_cast<float>(std::rand());
}

int after_brace_init() MMHAR_DETERMINISTIC {
  return std::rand();
}

}  // namespace fixture
