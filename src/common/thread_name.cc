#include "common/thread_name.h"

#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace dpstarj::common {

void SetCurrentThreadName(const char* name) {
#if defined(__linux__)
  // TASK_COMM_LEN: 15 chars + NUL. Longer names are cut explicitly — a
  // "%s" snprintf would do the same, but GCC flags it as truncation.
  char truncated[16];
  const size_t len = strnlen(name, sizeof(truncated) - 1);
  std::memcpy(truncated, name, len);
  truncated[len] = '\0';
  (void)prctl(PR_SET_NAME, reinterpret_cast<unsigned long>(truncated), 0, 0, 0);
#else
  (void)name;
#endif
}

void SetCurrentThreadName(const char* prefix, int index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%d", prefix, index);
  SetCurrentThreadName(name);
}

}  // namespace dpstarj::common
